//! The reader's error contract, over every artifact type the store and the
//! tools read back.
//!
//! `serde_json::from_str` reads a document in one pass and reports the
//! first error met from its start, with a text from the error contract in
//! the `serde` crate docs (cases E-01 to E-08). This test
//!
//! * pins one row per artifact type (faultload, journal header, slot
//!   record, stored run, stop record, pack) and error class, with the exact
//!   text, or `Accepted` where the class cannot occur for that type;
//! * mutates golden artifacts byte by byte and token by token: no mutant
//!   panics, an accepted one writes and re-reads to the same bytes, and a
//!   rejected one's text matches a contract row;
//! * bounds the most memory reading a seed or a mutant holds at once to
//!   [`ALLOC_FACTOR`] times the input's length, counted per thread by a
//!   counting global allocator, so tests running in parallel do not
//!   disturb it. The hand-made contract rows are too small for the bound:
//!   a fixed cost such as a first `Vec` allocation outweighs them.

mod counting;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use depbench::{
    Campaign, CampaignConfig, CampaignResult, IntervalConfig, MetricsSummary, SlotError, SlotResult,
};
use faultstore::{FaultStore, JournalHeader, StopRecord};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::{FaultPack, Faultload, Scanner};
use webserver::ServerKind;

use counting::peak_of;

/// The bound on a read's peak allocation, as a multiple of the input's
/// length. Over the seeds, 200,000 mutants of them and 4,000 mutants of
/// the golden scans the largest ratio was 2.61: a 49-byte slot record,
/// rejected, whose error text outweighs the input.
const ALLOC_FACTOR: usize = 4;

/// The schema fixture's layout (see `golden_serde.rs`).
#[derive(Serialize, Deserialize)]
struct Golden {
    faultload: Faultload,
    slot_result: SlotResult,
    campaign_result: CampaignResult,
    metrics_summary: MetricsSummary,
    stop_record: StopRecord,
}

/// A journal line after the header, declared as `journal.rs` declares it.
#[derive(Serialize, Deserialize)]
struct SlotRecord {
    slot: usize,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    result: Option<SlotResult>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    quarantined: Option<SlotError>,
}

/// The type an artifact is read as.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Faultload,
    JournalHeader,
    SlotRecord,
    SlotResult,
    CampaignResult,
    MetricsSummary,
    StopRecord,
    FaultPack,
}

/// What reading `doc` as `T` gives: `Ok(None)` when it is accepted and
/// writes and re-reads to the same bytes, `Ok(Some(text))` when it is
/// rejected with a text of the contract, `Err` otherwise. Also returns the
/// read's peak allocation.
type Outcome = (Result<Option<String>, String>, usize);

fn read<T: Deserialize + Serialize>(doc: &str) -> Outcome {
    let (result, peak) = peak_of(|| serde_json::from_str::<T>(doc));
    let outcome = match result {
        Ok(v) => round_trip(&v).map(|()| None),
        Err(e) => match class_of(&e.to_string()) {
            Some(_) => Ok(Some(e.to_string())),
            None => Err(format!("not a contract text: {e}")),
        },
    };
    (outcome, peak)
}

/// Writes `v`, reads it back, and checks the copy writes the same bytes.
fn round_trip<T: Deserialize + Serialize>(v: &T) -> Result<(), String> {
    let text = |v: &T| serde_json::to_string(v).map_err(|e| e.to_string());
    let written = text(v)?;
    let back: T = serde_json::from_str(&written).map_err(|e| e.to_string())?;
    if text(&back)? != written {
        return Err(format!("does not round-trip: {written}"));
    }
    Ok(())
}

fn check(kind: Kind, doc: &str) -> Outcome {
    match kind {
        Kind::Faultload => read::<Faultload>(doc),
        Kind::JournalHeader => read::<JournalHeader>(doc),
        Kind::SlotRecord => read::<SlotRecord>(doc),
        Kind::SlotResult => read::<SlotResult>(doc),
        Kind::CampaignResult => read::<CampaignResult>(doc),
        Kind::MetricsSummary => read::<MetricsSummary>(doc),
        Kind::StopRecord => read::<StopRecord>(doc),
        Kind::FaultPack => read::<FaultPack>(doc),
    }
}

/// [`check`], and the read must stay within the allocation bound.
fn check_bounded(kind: Kind, doc: &str) -> Result<Option<String>, String> {
    let (outcome, peak) = check(kind, doc);
    if peak > ALLOC_FACTOR * doc.len() {
        return Err(format!("read held {peak} bytes for {} input", doc.len()));
    }
    outcome
}

/// The error classes of the contract.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    Syntax,
    TooDeep,
    TrailingInput,
    WrongType,
    UnknownField,
    MissingField,
    UnknownVariant,
    OutOfRange,
}

/// The contract's texts by class. In a pattern `*` stands for any text,
/// `#` for an integer and `$` for what was found: a kind, or a string
/// with its excerpt.
const CONTRACT: [(Class, &[&str]); 8] = [
    (
        Class::Syntax,
        &[
            "unexpected `*` at byte #",
            "unexpected end of input at byte #",
            "expected `*` at byte #",
            "expected `,` or `*` at byte #",
            "unexpected end of input in string at byte #",
            "control character in string at byte #",
            "unknown escape `*` at byte #",
            "bad \\u escape at byte #",
            "bad number `*` at byte #",
        ],
    ),
    (Class::TooDeep, &["recursion limit exceeded at byte #"]),
    (Class::TrailingInput, &["trailing input at byte #"]),
    (
        Class::WrongType,
        &[
            "expected *, got $",
            "expected # elements, got #",
            "missing payload for *",
        ],
    ),
    (
        Class::UnknownField,
        &["unknown field `*` in * (expected *)"],
    ),
    (Class::MissingField, &["missing field `*` in *"]),
    (
        Class::UnknownVariant,
        &[
            "unknown * variant `*` (expected one of: *)",
            "unknown fault type `*` (expected one of *)",
        ],
    ),
    (
        Class::OutOfRange,
        &[
            "# out of range for *",
            "# out of range",
            "number out of range at byte #",
        ],
    ),
];

/// The class of an error text, or `None` when no contract row has it.
fn class_of(text: &str) -> Option<Class> {
    if text.contains('\n') {
        return None;
    }
    CONTRACT
        .iter()
        .find(|(_, patterns)| patterns.iter().any(|p| matches(p, text)))
        .map(|(class, _)| *class)
}

/// Whether `text` matches `pattern` (see [`CONTRACT`]); `$` may only end
/// a pattern.
fn matches(pattern: &str, text: &str) -> bool {
    let Some(c) = pattern.chars().next() else {
        return text.is_empty();
    };
    let rest = &pattern[c.len_utf8()..];
    match c {
        '*' => text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .any(|i| matches(rest, &text[i..])),
        '#' => {
            let digits = text.strip_prefix('-').unwrap_or(text);
            let n = digits.bytes().take_while(u8::is_ascii_digit).count();
            n > 0 && matches(rest, &digits[n..])
        }
        '$' => {
            let kinds = ["null", "bool", "integer", "number", "array", "object"];
            let string = text.len() > 8 && text.starts_with("string `") && text.ends_with('`');
            rest.is_empty() && (kinds.contains(&text) || string)
        }
        c => text.starts_with(c) && matches(rest, &text[c.len_utf8()..]),
    }
}

fn repo_file(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        serde_json::from_str(&repo_file("crates/faultstore/tests/fixtures/golden.json")).unwrap()
    })
}

fn nest(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// `doc` with its one occurrence of `from` replaced by `to`.
fn edit(doc: &str, from: &str, to: &str) -> String {
    assert_eq!(doc.matches(from).count(), 1, "`{from}` in {doc}");
    doc.replacen(from, to, 1)
}

/// What a contract row expects of its document.
enum Expect {
    /// The class cannot occur for this type: the document is accepted.
    Accepted,
    /// Rejected with exactly this text.
    Rejected(&'static str),
}

/// One row per (artifact type, error class). Each document has exactly
/// the one error its row names.
#[rustfmt::skip]
fn contract_rows() -> Vec<(Kind, Class, String, Expect)> {
    use Class::*;
    use Expect::*;
    use Kind::{CampaignResult as Run, FaultPack as Pack, Faultload as Load, JournalHeader as Head, SlotRecord as Slot, StopRecord as Stop};
    let load = r#"{"target":"os","faults":[]}"#;
    let fault = r#"{"target":"os","faults":[{"id":"MFC@f+1","fault_type":"Mfc","func":"f","site":1,"patches":[],"note":"n"}]}"#;
    let head = r#"{"schema":1,"edition":"nimbus-2000","server":"wren","iteration":0,"config_hash":1,"faultload_fingerprint":2,"faultload_hash":3,"fault_count":4}"#;
    let slot = r#"{"slot":1,"quarantined":{"Panicked":{"message":"boom"}}}"#;
    let run = &serde_json::to_string(&golden().campaign_result).unwrap();
    let stop = &serde_json::to_string(&golden().stop_record).unwrap();
    let pack = r#"{"name":"p","version":"1","operators":[{"id":"X","fault-type":"Mfc","pattern":"and-chain-clause","mutation":"flip-comparison","note":"n"}]}"#;
    // `doc` with `entry` as its first key and value.
    let first = |doc: &str, entry: &str| format!("{{{entry},{}", &doc[1..]);
    let deep = |doc: &str| first(doc, &format!(r#""extra":{}"#, nest(129)));
    let zz = |doc: &str| first(doc, r#""zz":1"#);
    let trailing = |doc: &str| format!("{doc} x");
    let cut = &run[..run.find(r#""Wren""#).unwrap() + 3];
    vec![
        (Load, Syntax, edit(load, "[]}", "[}"), Rejected("unexpected `}` at byte 25")),
        (Load, TooDeep, deep(load), Rejected("recursion limit exceeded at byte 136")),
        (Load, TrailingInput, trailing(load), Rejected("trailing input at byte 28")),
        (Load, WrongType, edit(load, r#""os""#, "1"), Rejected("expected string, got integer")),
        (Load, UnknownField, zz(load), Accepted),
        (Load, MissingField, edit(load, r#""target":"os","#, ""), Rejected("missing field `target` in Faultload")),
        (Load, UnknownVariant, edit(fault, "Mfc", "Nope"), Rejected("unknown fault type `Nope` (expected one of MVI, MVAV, MVAE, MIA, MLAC, MFC, MIFS, MLPC, WVAV, WLEC, WAEP, WPFV, in any case)")),
        (Load, OutOfRange, first(load, r#""fingerprint":-1"#), Rejected("-1 out of range")),

        (Head, Syntax, edit(head, r#"1,"e"#, r#"1 "e"#), Rejected("expected `,` or `}` at byte 12")),
        (Head, TooDeep, deep(head), Rejected("recursion limit exceeded at byte 136")),
        (Head, TrailingInput, trailing(head), Rejected("trailing input at byte 144")),
        (Head, WrongType, edit(head, r#""iteration":0"#, r#""iteration":"0""#), Rejected("expected integer, got string `0`")),
        (Head, UnknownField, zz(head), Accepted),
        (Head, MissingField, edit(head, r#","fault_count":4"#, ""), Rejected("missing field `fault_count` in JournalHeader")),
        // The edition is a plain string, checked against the campaign when
        // the journal is resumed, not by the reader.
        (Head, UnknownVariant, edit(head, "nimbus-2000", "nimbus-3000"), Accepted),
        (Head, OutOfRange, edit(head, r#""schema":1"#, r#""schema":4294967296"#), Rejected("4294967296 out of range for u32")),

        (Slot, Syntax, edit(slot, "boom", "bo\tom"), Rejected("control character in string at byte 50")),
        (Slot, TooDeep, deep(slot), Rejected("recursion limit exceeded at byte 136")),
        (Slot, TrailingInput, trailing(slot), Rejected("trailing input at byte 57")),
        (Slot, WrongType, edit(slot, r#""slot":1"#, r#""slot":"1""#), Rejected("expected integer, got string `1`")),
        (Slot, UnknownField, zz(slot), Accepted),
        (Slot, MissingField, edit(slot, r#""slot":1,"#, ""), Rejected("missing field `slot` in SlotRecord")),
        (Slot, UnknownVariant, edit(slot, "Panicked", "Hung"), Rejected("unknown SlotError variant `Hung` (expected one of: Panicked, TimedOut)")),
        (Slot, OutOfRange, edit(slot, r#""slot":1"#, r#""slot":-1"#), Rejected("-1 out of range")),

        (Run, Syntax, cut.to_string(), Rejected("unexpected end of input in string at byte 36")),
        (Run, TooDeep, deep(run), Rejected("recursion limit exceeded at byte 136")),
        (Run, TrailingInput, trailing(run), Rejected("trailing input at byte 1084")),
        (Run, WrongType, edit(run, r#""slots":["#, r#""slots":{},"zz":["#), Rejected("expected array, got object")),
        (Run, UnknownField, zz(run), Accepted),
        (Run, MissingField, edit(run, r#""server":"Wren","#, ""), Rejected("missing field `server` in CampaignResult")),
        (Run, UnknownVariant, edit(run, "Nimbus2000", "Nimbus3000"), Rejected("unknown Edition variant `Nimbus3000` (expected one of: Nimbus2000, NimbusXp)")),
        (Run, OutOfRange, edit(run, r#""server""#, r#""zz":1e400,"server""#), Rejected("number out of range at byte 29")),

        (Stop, Syntax, edit(stop, r#""stopped_at":2"#, r#""stopped_at":02"#), Rejected("bad number `02` at byte 251")),
        (Stop, TooDeep, deep(stop), Rejected("recursion limit exceeded at byte 136")),
        (Stop, TrailingInput, trailing(stop), Rejected("trailing input at byte 271")),
        (Stop, WrongType, edit(stop, r#""converged":true"#, r#""converged":1"#), Rejected("expected bool, got integer")),
        (Stop, UnknownField, zz(stop), Accepted),
        (Stop, MissingField, edit(stop, r#""stopped_at":2,"#, ""), Rejected("missing field `stopped_at` in StopRecord")),
        // As in the journal header, the edition is a plain string.
        (Stop, UnknownVariant, edit(stop, "nimbus-2000", "nimbus-3000"), Accepted),
        (Stop, OutOfRange, edit(stop, r#""stopped_at":2"#, r#""stopped_at":-1"#), Rejected("-1 out of range")),

        (Pack, Syntax, edit(pack, r#""p""#, r#""p\q""#), Rejected("unknown escape `\\q` at byte 10")),
        // A pack denies unknown keys; a repeated known key is skipped.
        (Pack, TooDeep, edit(pack, r#""operators""#, &format!(r#""name":{},"operators""#, nest(129))), Rejected("recursion limit exceeded at byte 160")),
        (Pack, TrailingInput, trailing(pack), Rejected("trailing input at byte 140")),
        (Pack, WrongType, edit(pack, "[{", "[[],{"), Rejected("expected object for PackOperator, got array")),
        (Pack, UnknownField, zz(pack), Rejected("unknown field `zz` in FaultPack (expected one of: name, version, description, operators)")),
        (Pack, MissingField, edit(pack, r#""version":"1","#, ""), Rejected("missing field `version` in FaultPack")),
        (Pack, UnknownVariant, edit(pack, "and-chain-clause", "nope"), Rejected("unknown Pattern variant `nope` (expected one of: if-construct, and-chain-clause, unused-call, literal-assignment, expression-assignment, straight-run, comparison-branch, arg-arithmetic, arg-frame-load)")),
        (Pack, OutOfRange, edit(pack, r#""flip-comparison""#, r#"{"perturb-immediate":{"delta":2147483648}}"#), Rejected("2147483648 out of range for i32")),
    ]
}

#[test]
fn every_artifact_type_meets_every_contract_row() {
    let rows = contract_rows();
    assert_eq!(rows.len(), 6 * CONTRACT.len());
    let mut failures = Vec::new();
    for (kind, class, doc, expect) in rows {
        let (got, _) = check(kind, &doc);
        let ok = match (&expect, &got) {
            (Expect::Accepted, Ok(None)) => true,
            (Expect::Rejected(text), Ok(Some(got))) => got == text && class_of(text) == Some(class),
            _ => false,
        };
        if !ok {
            failures.push(format!(
                "{kind:?} × {class:?}: got {got:?} for {}",
                serde::excerpt(&doc)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A journal and a stored run of a two-fault campaign.
fn campaign_artifacts() -> Vec<(Kind, String)> {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let faultload = Scanner::standard()
        .scan_functions(os.program().image(), &simos::OsApi::symbols())
        .sample(2);
    let config = CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(300),
            ..IntervalConfig::default()
        })
        .os_budget(150_000)
        .build();
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, config);
    let dir: PathBuf = std::env::temp_dir().join(format!("reader-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FaultStore::open(&dir).unwrap();
    let result = store
        .run_resumable(&campaign, &faultload, 0, false)
        .unwrap();
    let run = store.save_run("contract", &result).unwrap();
    let journal = std::fs::read_to_string(store.journal_path(&campaign, 0)).unwrap();
    let mut out = vec![(Kind::CampaignResult, std::fs::read_to_string(run).unwrap())];
    std::fs::remove_dir_all(&dir).unwrap();
    let mut lines = journal.lines();
    out.push((Kind::JournalHeader, lines.next().unwrap().to_string()));
    out.extend(lines.map(|line| (Kind::SlotRecord, line.to_string())));
    let quarantined = SlotRecord {
        slot: 1,
        result: None,
        quarantined: Some(SlotError::Panicked {
            message: "synthetic quarantine".into(),
        }),
    };
    out.push((
        Kind::SlotRecord,
        serde_json::to_string(&quarantined).unwrap(),
    ));
    out
}

fn pretty<T: Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).unwrap()
}

/// Every seed artifact but the golden scans, built once.
fn seeds() -> &'static [(Kind, String)] {
    static SEEDS: OnceLock<Vec<(Kind, String)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let golden = golden();
        let mut seeds = vec![
            (Kind::Faultload, pretty(&golden.faultload)),
            (Kind::SlotResult, pretty(&golden.slot_result)),
            (Kind::CampaignResult, pretty(&golden.campaign_result)),
            (Kind::MetricsSummary, pretty(&golden.metrics_summary)),
            (Kind::StopRecord, pretty(&golden.stop_record)),
            (Kind::FaultPack, repo_file("packs/odc-classic.json")),
            (Kind::FaultPack, repo_file("packs/chain-cleanup.json")),
        ];
        seeds.extend(campaign_artifacts());
        seeds
    })
}

fn golden_scans() -> &'static [(Kind, String)] {
    static SCANS: OnceLock<Vec<(Kind, String)>> = OnceLock::new();
    SCANS.get_or_init(|| {
        ["nimbus-2000", "nimbus-xp"]
            .map(|e| {
                let path = format!("crates/bench/tests/fixtures/golden-scan-{e}.json");
                (Kind::Faultload, repo_file(&path))
            })
            .to_vec()
    })
}

/// SplitMix64: the mutation stream of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        &xs[self.below(xs.len())]
    }
}

/// Replacement tokens: wrong kinds, edge-of-range and non-JSON numbers,
/// surrogate and malformed escapes, and nesting at and past the limit.
fn pool() -> &'static [String] {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool: Vec<String> = [
            "null",
            "true",
            "false",
            "0",
            "-0",
            "-1",
            "1.5",
            "2E+3",
            "1e400",
            "-1e400",
            "01",
            "-01",
            "1.",
            "1e",
            "-",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775808",
            "-9223372036854775809",
            r#""""#,
            r#""x""#,
            r#""😀""#,
            r#""\ud83d""#,
            r#""\ude00\ud83d""#,
            r#""\q""#,
            r#""\u12""#,
            r#""\u+041""#,
            "\"a\tb\"",
            "[]",
            "{}",
            "[null]",
            r#"{"k":1}"#,
            "[1,2]",
            "[1,2,3]",
            r#""Mifs""#,
            r#""MIFS""#,
            r#""panicked""#,
            r#""Nimbus2000""#,
        ]
        .map(String::from)
        .to_vec();
        pool.extend([nest(128), nest(129)]);
        pool
    })
}

/// Byte ranges of the JSON tokens in `doc`: strings, number runs, words
/// and single other characters.
fn tokens(doc: &str) -> Vec<(usize, usize)> {
    let b = doc.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(b.len());
            }
            b'-' | b'0'..=b'9' => {
                i += 1;
                while i < b.len() && b"0123456789.eE+-".contains(&b[i]) {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() => {
                while i < b.len() && b[i].is_ascii_alphabetic() {
                    i += 1;
                }
            }
            // A whole character, so every range is a slice of `doc`.
            _ => i += doc[i..].chars().next().map_or(1, char::len_utf8),
        }
        out.push((start, i));
    }
    out
}

/// One to three byte or token mutations of `doc`.
fn mutate(doc: &str, rng: &mut Rng) -> String {
    let mut doc = doc.to_string();
    for _ in 0..1 + rng.below(3) {
        let op = rng.below(9);
        if op < 3 {
            let mut bytes = doc.into_bytes();
            let at = rng.below(bytes.len().max(1)).min(bytes.len());
            let byte = match rng.below(5) {
                0 => rng.next() as u8,
                _ => b"{}[],:\"\\-+.0eEnul \x00"[rng.below(19)],
            };
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
            doc = String::from_utf8_lossy(&bytes).into_owned();
            continue;
        }
        let toks = tokens(&doc);
        if toks.is_empty() {
            continue;
        }
        let (s, e) = toks[rng.below(toks.len())];
        // Object keys: a string token followed by `:`.
        let keys: Vec<(usize, usize)> = toks
            .windows(2)
            .filter(|w| doc.as_bytes()[w[0].0] == b'"' && doc.as_bytes()[w[1].0] == b':')
            .map(|w| w[0])
            .collect();
        let replacement = rng.pick(pool());
        doc = match op {
            3 => format!("{}{replacement}{}", &doc[..s], &doc[e..]),
            4 => format!("{}{}", &doc[..s], &doc[e..]),
            5 => format!("{}{}{}", &doc[..e], &doc[s..e], &doc[e..]),
            // A duplicate key in front of the original, or an unknown one.
            6 | 7 if !keys.is_empty() => {
                let (ks, ke) = keys[rng.below(keys.len())];
                let key = if op == 6 {
                    &doc[ks..ke]
                } else {
                    "\"zz-unknown\""
                };
                format!("{}{key}:{replacement},{}", &doc[..ks], &doc[ks..])
            }
            _ => {
                let (s2, e2) = toks[rng.below(toks.len())];
                if s2 < e {
                    continue;
                }
                let (a, b, c) = (&doc[s..e], &doc[e..s2], &doc[s2..e2]);
                format!("{}{c}{b}{a}{}", &doc[..s], &doc[e2..])
            }
        };
    }
    doc
}

#[test]
fn seeds_are_accepted_and_round_trip() {
    for (kind, doc) in seeds().iter().chain(golden_scans()) {
        assert_eq!(check_bounded(*kind, doc), Ok(None), "{kind:?} seed");
    }
}

#[test]
fn the_contract_patterns_match_only_their_texts() {
    assert_eq!(
        class_of("expected integer, got string `x`"),
        Some(Class::WrongType)
    );
    assert_eq!(class_of("expected integer, got string `x"), None);
    assert_eq!(class_of("expected integer, got list"), None);
    assert_eq!(class_of("-1 out of range"), Some(Class::OutOfRange));
    assert_eq!(class_of("x out of range"), None);
    assert_eq!(
        class_of("expected `,` or `]` at byte 3"),
        Some(Class::Syntax)
    );
    assert_eq!(class_of("recursion limit exceeded at byte"), None);
    assert_eq!(class_of("unexpected Some('x') at byte 0"), None);
    assert_eq!(class_of("unterminated string"), None);
    assert_eq!(class_of("missing field `a` in A\nB"), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated artifacts never panic, round-trip when accepted, meet the
    /// contract when rejected, and stay within the allocation bound.
    #[test]
    fn mutated_artifacts_meet_the_contract(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (kind, doc) = &seeds()[rng.below(seeds().len())];
        let mutant = mutate(doc, &mut rng);
        if let Err(e) = check_bounded(*kind, &mutant) {
            prop_assert!(false, "{kind:?} mutant {mutant}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same over the large golden scans, with fewer cases.
    #[test]
    fn mutated_golden_scans_meet_the_contract(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (kind, doc) = &golden_scans()[rng.below(golden_scans().len())];
        let mutant = mutate(doc, &mut rng);
        if let Err(e) = check_bounded(*kind, &mutant) {
            prop_assert!(false, "{kind:?} mutant: {e}");
        }
    }
}
