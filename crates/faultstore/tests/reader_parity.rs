//! Reader parity over mutated artifacts.
//!
//! `serde_json::from_str::<T>` reads a document in one pass, straight into
//! `T`. It must agree with the tree route: reading the document as a
//! `serde::Value` and converting that with `T::from_value`. This test
//! seeds every artifact type the store and the tools read back from golden
//! artifacts: the schema fixture, a journal and a stored run from a small
//! campaign, the golden scans (faultload artifacts and cache entries),
//! both bundled packs and a stop record. It mutates them byte by byte and
//! token by token, and checks each mutant:
//!
//! * both routes give the same value, or errors with identical text;
//! * neither panics;
//! * a value they accept round-trips: written and read back, it writes the
//!   same text.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use depbench::{
    Campaign, CampaignConfig, CampaignResult, IntervalConfig, MetricsSummary, SlotError, SlotResult,
};
use faultstore::{FaultStore, JournalHeader, StopRecord};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::{FaultPack, Faultload, Scanner};
use webserver::ServerKind;

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

/// Reads `doc` on both routes; `Ok(true)` when they accept it alike,
/// `Ok(false)` when they reject it alike.
fn agree<T: Deserialize + Serialize>(doc: &str) -> Result<bool, String> {
    let text = |v: &T| serde_json::to_string(v).map_err(|e| e.to_string());
    let direct = serde_json::from_str::<T>(doc).map_err(|e| e.to_string());
    let via_value = serde_json::from_str::<Value>(doc)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    match (direct, via_value) {
        (Ok(a), Ok(b)) => {
            let written = text(&a)?;
            if written != text(&b)? {
                return Err("the routes read different values".into());
            }
            let back: T = serde_json::from_str(&written).map_err(|e| e.to_string())?;
            if text(&back)? != written {
                return Err(format!("does not round-trip: {written}"));
            }
            Ok(true)
        }
        (Err(a), Err(b)) if a == b => Ok(false),
        (a, b) => Err(format!(
            "the routes disagree: one pass {:?}, via Value {:?}",
            a.err(),
            b.err()
        )),
    }
}

fn check(kind: Kind, doc: &str) -> Result<bool, String> {
    match kind {
        Kind::Faultload => agree::<Faultload>(doc),
        Kind::JournalHeader => agree::<JournalHeader>(doc),
        Kind::SlotRecord => agree::<SlotRecord>(doc),
        Kind::SlotResult => agree::<SlotResult>(doc),
        Kind::CampaignResult => agree::<CampaignResult>(doc),
        Kind::MetricsSummary => agree::<MetricsSummary>(doc),
        Kind::StopRecord => agree::<StopRecord>(doc),
        Kind::FaultPack => agree::<FaultPack>(doc),
    }
}

fn repo_file(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
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
    let dir: PathBuf = std::env::temp_dir().join(format!("reader-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FaultStore::open(&dir).unwrap();
    let result = store
        .run_resumable(&campaign, &faultload, 0, false)
        .unwrap();
    let run = store.save_run("parity", &result).unwrap();
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
        let golden: Golden =
            serde_json::from_str(&repo_file("crates/faultstore/tests/fixtures/golden.json"))
                .unwrap();
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
/// surrogate escapes, and nesting at and past the limit.
fn pool() -> &'static [String] {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
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
            r#""\ud83d\ude00""#,
            r#""\ud83d""#,
            r#""\ude00\ud83d""#,
            r#""\q""#,
            r#""\u12""#,
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
/// and single punctuation characters.
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
            _ => i += 1,
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
fn seeds_read_alike_on_both_routes() {
    for (kind, doc) in seeds().iter().chain(golden_scans()) {
        assert_eq!(check(*kind, doc), Ok(true), "{kind:?} seed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated artifacts read alike on both routes and never panic.
    #[test]
    fn mutated_artifacts_read_alike(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (kind, doc) = &seeds()[rng.below(seeds().len())];
        let mutant = mutate(doc, &mut rng);
        if let Err(e) = check(*kind, &mutant) {
            prop_assert!(false, "{kind:?} mutant {mutant}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same over the large golden scans, with fewer cases.
    #[test]
    fn mutated_golden_scans_read_alike(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (kind, doc) = &golden_scans()[rng.below(golden_scans().len())];
        let mutant = mutate(doc, &mut rng);
        if let Err(e) = check(*kind, &mutant) {
            prop_assert!(false, "{kind:?} mutant: {e}");
        }
    }
}
