//! Faultload artifacts: fault definitions and the serializable faultload.
//!
//! Step 1 of G-SWFIT produces a *map of fault locations* for a target
//! executable; that map is the faultload. It is an artifact — it can be
//! saved, shipped and replayed, which is what makes the resulting
//! dependability benchmark repeatable and portable.

use std::collections::BTreeMap;
use std::fmt;

use mvm::Patch;
use serde::{Deserialize, Serialize};

use crate::pack::PackRef;
use crate::taxonomy::FaultType;

/// One injectable software fault: a pre-computed code mutation at a specific
/// location of the target.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultDef {
    /// Stable identifier, e.g. `"MIFS@rtl_alloc_heap+17"`.
    pub id: String,
    /// The emulated fault type.
    pub fault_type: FaultType,
    /// Function the fault lives in.
    pub func: String,
    /// Address of the pattern's key instruction.
    pub site: u32,
    /// The code-word overwrites that emulate the fault.
    pub patches: Vec<Patch>,
    /// Human-readable note from the operator (what was removed/changed).
    pub note: String,
}

impl fmt::Display for FaultDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] in {} @ {} ({} word(s))",
            self.id,
            self.fault_type,
            self.func,
            self.site,
            self.patches.len()
        )
    }
}

/// A complete faultload for one target image.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Faultload {
    /// Name of the target image the faultload was generated from.
    pub target: String,
    /// Fingerprint of the target image's code at scan time (`None` in
    /// hand-built or legacy artifacts).
    #[serde(default)]
    pub fingerprint: Option<u64>,
    /// Provenance of the fault-model packs that generated this faultload,
    /// in scan order (empty in hand-built or pre-pack artifacts — the field
    /// is additive, so legacy JSON round-trips byte-identically).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub packs: Vec<PackRef>,
    /// All fault definitions, in scan order (deterministic).
    pub faults: Vec<FaultDef>,
}

impl Faultload {
    /// Creates an empty faultload for `target`.
    pub fn new(target: impl Into<String>) -> Faultload {
        Faultload {
            target: target.into(),
            fingerprint: None,
            packs: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Evenly samples the faultload down to at most `n` faults: every
    /// `len / n`-th fault in scan order, so a small sample still spans every
    /// function and fault type of the map. `n` must be positive;
    /// `usize::MAX` keeps every fault.
    #[must_use]
    pub fn sample(mut self, n: usize) -> Faultload {
        let stride = (self.len() / n).max(1);
        self.faults = self.faults.into_iter().step_by(stride).take(n).collect();
        self
    }

    /// True when this faultload was generated from exactly this image (or
    /// carries no fingerprint to check). Injecting a faultload into a
    /// *different* build patches arbitrary words — always verify first.
    ///
    /// A `None` fingerprint passes this check for backward compatibility
    /// with hand-built artifacts, but it is a degraded state: the scanner
    /// always stamps one, campaigns log a loud warning when it is missing
    /// (see `depbench::Campaign::run_injection`), and the persistent store
    /// refuses to cache unfingerprinted faultloads. Use
    /// [`Faultload::is_fingerprinted`] to detect it.
    pub fn matches_image(&self, image: &mvm::CodeImage) -> bool {
        self.fingerprint.is_none_or(|fp| fp == image.fingerprint())
    }

    /// True when the faultload records which build it was scanned from.
    /// Scanner output always does; only hand-built or legacy JSON artifacts
    /// can lack the stamp.
    pub fn is_fingerprinted(&self) -> bool {
        self.fingerprint.is_some()
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no fault was found.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults of one type (a Table 3 cell).
    pub fn count_of(&self, t: FaultType) -> usize {
        self.faults.iter().filter(|f| f.fault_type == t).count()
    }

    /// Per-type counts in Table 1 order (a Table 3 row).
    pub fn counts_by_type(&self) -> BTreeMap<FaultType, usize> {
        let mut m: BTreeMap<FaultType, usize> =
            FaultType::ALL.into_iter().map(|t| (t, 0)).collect();
        for f in &self.faults {
            *m.get_mut(&f.fault_type).expect("all types present") += 1;
        }
        m
    }

    /// Fault counts per FIT function, sorted by name — the per-function
    /// breakdown reports print alongside Table 3.
    pub fn per_function_counts(&self) -> BTreeMap<String, usize> {
        let mut m: BTreeMap<String, usize> = BTreeMap::new();
        for f in &self.faults {
            *m.entry(f.func.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Restricts the faultload to faults inside the named functions —
    /// the paper's fine-tuning step (§2.4): keep only faults in the
    /// profiled, heavily-used subset of the FIT.
    pub fn restrict_to_functions(&self, funcs: &[String]) -> Faultload {
        Faultload {
            target: self.target.clone(),
            fingerprint: self.fingerprint,
            packs: self.packs.clone(),
            faults: self
                .faults
                .iter()
                .filter(|f| funcs.contains(&f.func))
                .cloned()
                .collect(),
        }
    }

    /// Serializes to pretty JSON (the storable artifact).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (practically impossible for this
    /// data shape).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a faultload back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(s: &str) -> Result<Faultload, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Faultload {
        Faultload {
            target: "os".into(),
            fingerprint: None,
            packs: Vec::new(),
            faults: vec![
                FaultDef {
                    id: "MIFS@f+4".into(),
                    fault_type: FaultType::Mifs,
                    func: "f".into(),
                    site: 4,
                    patches: vec![Patch {
                        addr: 4,
                        new_word: 0,
                    }],
                    note: "nop if".into(),
                },
                FaultDef {
                    id: "MFC@g+9".into(),
                    fault_type: FaultType::Mfc,
                    func: "g".into(),
                    site: 9,
                    patches: vec![Patch {
                        addr: 9,
                        new_word: 0,
                    }],
                    note: "nop call".into(),
                },
                FaultDef {
                    id: "MIFS@g+2".into(),
                    fault_type: FaultType::Mifs,
                    func: "g".into(),
                    site: 2,
                    patches: vec![],
                    note: String::new(),
                },
            ],
        }
    }

    #[test]
    fn counts() {
        let fl = sample();
        assert_eq!(fl.len(), 3);
        assert_eq!(fl.count_of(FaultType::Mifs), 2);
        assert_eq!(fl.count_of(FaultType::Mfc), 1);
        assert_eq!(fl.count_of(FaultType::Wvav), 0);
        let by = fl.counts_by_type();
        assert_eq!(by.len(), 12); // every type has a row, even when zero
        assert_eq!(by[&FaultType::Mifs], 2);
        assert_eq!(by[&FaultType::Mlpc], 0);
    }

    #[test]
    fn restriction_filters_by_function() {
        let fl = sample();
        let only_g = fl.restrict_to_functions(&["g".to_string()]);
        assert_eq!(only_g.len(), 2);
        assert!(only_g.faults.iter().all(|f| f.func == "g"));
        let none = fl.restrict_to_functions(&[]);
        assert!(none.is_empty());
    }

    #[test]
    fn per_function_counts_sum_to_len() {
        let fl = sample();
        let per = fl.per_function_counts();
        assert_eq!(per["f"], 1);
        assert_eq!(per["g"], 2);
        assert_eq!(per.values().sum::<usize>(), fl.len());
    }

    #[test]
    fn sampling_keeps_an_even_stride_of_at_most_n() {
        let mut fl = sample();
        fl.faults = (0..10)
            .map(|site| FaultDef {
                site,
                ..fl.faults[0].clone()
            })
            .collect();
        let sites = |fl: Faultload| fl.faults.iter().map(|f| f.site).collect::<Vec<_>>();
        assert_eq!(sites(fl.clone().sample(3)), [0, 3, 6]);
        assert_eq!(sites(fl.clone().sample(4)), [0, 2, 4, 6]);
        assert_eq!(fl.clone().sample(20), fl, "n above len keeps everything");
    }

    #[test]
    fn unfingerprinted_artifacts_are_detectable() {
        let mut fl = sample();
        assert!(!fl.is_fingerprinted());
        fl.fingerprint = Some(7);
        assert!(fl.is_fingerprinted());
    }

    #[test]
    fn json_roundtrip() {
        let fl = sample();
        let s = fl.to_json().unwrap();
        let back = Faultload::from_json(&s).unwrap();
        assert_eq!(back, fl);
    }

    #[test]
    fn display_is_informative() {
        let fl = sample();
        let s = fl.faults[0].to_string();
        assert!(s.contains("MIFS"));
        assert!(s.contains("f"));
    }
}
