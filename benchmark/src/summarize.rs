//! `benchmark summarize A.jsonl B.jsonl`: compares two sets of runs.
//!
//! Each file holds the metric lines of any number of runs (one JSON
//! object per line, as the benchmark prints them; other lines are
//! skipped). For every (workload, metric) the table gives each set's
//! median and quartiles. End-to-end metrics are judged against their
//! bound in `BENCHMARK.json`. Lines marked `exact` (counters and result
//! digests) must be identical across every run of either set that used
//! the same seed, so compare sets run with the same seeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{DeError, Deserialize};

use crate::measure::quartiles;

/// Any JSON value, kept as the vendored serde value tree.
struct Json(serde::Value);

impl Deserialize for Json {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Bound>,
}

#[derive(Deserialize)]
struct Bound {
    name: String,
    bound: f64,
}

#[derive(Default)]
struct Samples {
    numbers: Vec<f64>,
    /// Every value rendered as text, with the seed of its run.
    rendered: Vec<(u64, String)>,
    exact: bool,
    unit: String,
}

type Set = BTreeMap<(String, String), Samples>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(Json(v)) = serde_json::from_str::<Json>(line) else {
            continue;
        };
        let text_of = |key: &str| match v.get(key) {
            Some(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let (Some(workload), Some(metric)) = (text_of("workload"), text_of("metric")) else {
            continue;
        };
        let seed = match v.get("seed") {
            Some(serde::Value::I64(s)) => *s as u64,
            Some(serde::Value::U64(s)) => *s,
            _ => 0,
        };
        let samples = set.entry((workload, metric)).or_default();
        samples.exact |= matches!(v.get("exact"), Some(serde::Value::Bool(true)));
        samples.unit = text_of("unit").unwrap_or_default();
        let number = match v.get("value") {
            Some(serde::Value::F64(x)) => Some(*x),
            Some(serde::Value::I64(x)) => Some(*x as f64),
            Some(serde::Value::U64(x)) => Some(*x as f64),
            _ => None,
        };
        match (number, v.get("value")) {
            (Some(x), _) => {
                samples.numbers.push(x);
                samples.rendered.push((seed, format!("{x:?}")));
            }
            (None, Some(serde::Value::Str(s))) => samples.rendered.push((seed, s.clone())),
            _ => {}
        }
    }
    Ok(set)
}

fn describe(s: &Samples) -> String {
    if s.numbers.is_empty() {
        return match s.rendered.first() {
            Some((_, first)) => format!("{first} (n={})", s.rendered.len()),
            None => "-".to_string(),
        };
    }
    let (q1, m, q3) = quartiles(&s.numbers);
    format!("{m:.4} [{q1:.4}, {q3:.4}] (n={})", s.numbers.len())
}

/// Whether every run of both sets with the same seed gave the same value;
/// `None` when the sets share no seed.
fn identical_per_seed(a: &Samples, b: &Samples) -> Option<bool> {
    let mut by_seed: BTreeMap<u64, (Vec<&str>, Vec<&str>)> = BTreeMap::new();
    for (seed, v) in &a.rendered {
        by_seed.entry(*seed).or_default().0.push(v);
    }
    for (seed, v) in &b.rendered {
        by_seed.entry(*seed).or_default().1.push(v);
    }
    let shared: Vec<_> = by_seed
        .values()
        .filter(|(va, vb)| !va.is_empty() && !vb.is_empty())
        .collect();
    if shared.is_empty() {
        return None;
    }
    Some(
        shared
            .iter()
            .all(|(va, vb)| va.iter().chain(vb).all(|v| *v == va[0])),
    )
}

/// Compares the runs in `a_path` with those in `b_path`, using the
/// end-to-end bounds of the `BENCHMARK.json` at `benchmark_path`.
/// Returns the rendered table and whether every bounded metric agreed and
/// every exact value matched.
///
/// # Errors
///
/// Returns a description when a file cannot be read or `BENCHMARK.json`
/// does not parse.
pub fn summarize(
    a_path: &str,
    b_path: &str,
    benchmark_path: &str,
) -> Result<(String, bool), String> {
    let bench: Benchmark = serde_json::from_str(
        &std::fs::read_to_string(benchmark_path).map_err(|e| format!("{benchmark_path}: {e}"))?,
    )
    .map_err(|e| format!("{benchmark_path}: {e}"))?;
    let bounds: BTreeMap<String, f64> = bench
        .end_to_end
        .into_iter()
        .map(|b| (b.name, b.bound))
        .collect();
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();

    let mut ok = true;
    let mut out = format!(
        "{:<26} {:<30} {:<40} {:<40} {:>8}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta"
    );
    for key in keys {
        let (sa, sb) = (a.get(key), b.get(key));
        let (workload, metric) = key;
        let render = |s: Option<&Samples>| s.map_or("-".to_string(), describe);
        let mut delta = String::new();
        let verdict = match (sa, sb) {
            (Some(sa), Some(sb)) if sa.exact || sb.exact => match identical_per_seed(sa, sb) {
                Some(true) => "identical".to_string(),
                Some(false) => {
                    ok = false;
                    "MISMATCH".to_string()
                }
                None => "no shared seed".to_string(),
            },
            (Some(sa), Some(sb)) if !sa.numbers.is_empty() && !sb.numbers.is_empty() => {
                let (ma, mb) = (quartiles(&sa.numbers).1, quartiles(&sb.numbers).1);
                let rel = (mb - ma) / ma;
                let _ = write!(delta, "{:+.2}%", 100.0 * rel);
                match bounds.get(metric) {
                    Some(bound) if rel.abs() <= *bound => {
                        format!("agree (bound {:.0}%)", bound * 100.0)
                    }
                    Some(bound) => {
                        ok = false;
                        format!("DIFFER (bound {:.0}%)", bound * 100.0)
                    }
                    None => String::new(),
                }
            }
            (Some(_), None) => "only in A".to_string(),
            (None, Some(_)) => "only in B".to_string(),
            _ => String::new(),
        };
        let unit = sa.or(sb).map_or("", |s| s.unit.as_str());
        let _ = writeln!(
            out,
            "{workload:<26} {:<30} {:<40} {:<40} {delta:>8}  {verdict}",
            format!("{metric} ({unit})"),
            render(sa),
            render(sb),
        );
    }
    let _ = writeln!(
        out,
        "\n{}",
        if ok {
            "sets agree: every bounded median within its bound, every exact value identical"
        } else {
            "sets DIFFER: see DIFFER / MISMATCH rows"
        }
    );
    Ok((out, ok))
}
