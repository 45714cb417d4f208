//! Output checks: pinned result digests and the paper's metric invariants.

use std::collections::BTreeMap;

use depbench::{CampaignResult, DependabilityMetrics, SlotResult, WatchdogCounts};
use specweb::IntervalMeasures;
use swfit_core::Faultload;

use crate::workload::Workload;

/// FNV-1a digests of each iteration's serialized `CampaignResult` for
/// [`crate::workload::DEFAULT_SEED`] and the full faultload, per workload.
const PINNED: &str = include_str!("../digests.json");

/// The digest of one serialized campaign result.
pub fn digest(json: &str) -> String {
    format!("{:#018x}", simkit::hash::fnv1a(json.as_bytes()))
}

/// Whether two slot results serialize to the same bytes.
pub fn same_slot(a: &SlotResult, b: &SlotResult) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

/// The pinned digests of `workload`, indexed by iteration.
///
/// # Panics
///
/// Panics when the embedded digest file does not parse — it is part of
/// the build, so that is a bug in this package.
pub fn pinned(workload: Workload) -> Vec<String> {
    let all: BTreeMap<String, Vec<String>> =
        serde_json::from_str(PINNED).expect("digests.json is a map of digest lists");
    all.get(workload.name()).cloned().unwrap_or_default()
}

/// Checks the invariants every campaign result must satisfy, returning a
/// description of each violation.
pub fn invariants(
    result: &CampaignResult,
    faultload: &Faultload,
    baseline: &IntervalMeasures,
    traced: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    if result.slots.len() + result.quarantined.len() != faultload.len() {
        problems.push(format!(
            "{} completed + {} quarantined slots != {} faults",
            result.slots.len(),
            result.quarantined.len(),
            faultload.len()
        ));
    }
    let quarantined: Vec<usize> = result.quarantined.iter().map(|q| q.slot).collect();
    let expected_ids = faultload
        .faults
        .iter()
        .enumerate()
        .filter(|(i, _)| !quarantined.contains(i))
        .map(|(_, f)| f.id.as_str());
    if !result
        .slots
        .iter()
        .map(|s| s.fault_id.as_str())
        .eq(expected_ids)
    {
        problems.push("slot results are not in faultload order".to_string());
    }
    let m = DependabilityMetrics::from_runs(baseline, result);
    if !(0.0..=100.0).contains(&m.er_pct_f) {
        problems.push(format!("ER%f {} outside [0, 100]", m.er_pct_f));
    }
    let availability = m.availability.availability_pct();
    if !(0.0..=100.0).contains(&availability) {
        problems.push(format!("availability {availability} % outside [0, 100]"));
    }
    let w = m.watchdog;
    if m.admf() != w.mis + w.kns + w.kcp {
        problems.push(format!("ADMf {} != MIS+KNS+KCP {w:?}", m.admf()));
    }
    let mut summed = WatchdogCounts::default();
    for slot in &result.slots {
        summed.merge(slot.watchdog);
    }
    if summed != result.watchdog {
        problems.push(format!(
            "slot watchdog counts {summed:?} do not add up to {:?}",
            result.watchdog
        ));
    }
    if result
        .slots
        .iter()
        .any(|s| s.activation.is_some() != traced)
    {
        problems.push(if traced {
            "a traced slot has no activation record".to_string()
        } else {
            "an untraced slot has an activation record".to_string()
        });
    }
    problems
}
