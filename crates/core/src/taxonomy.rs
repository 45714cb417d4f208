//! The representative fault types of the paper's Table 1.
//!
//! The paper selects, from field data on residual software faults (its
//! references \[11, 12\]), the 12 most frequent fault types. Together they
//! cover 50.69 % of the faults observed in deployed software. Each type is
//! classified along two axes: its *nature* — whether the programmer's error
//! was a **missing**, **wrong** or **extraneous** language construct — and
//! its Orthogonal Defect Classification (ODC) class. Extraneous-construct
//! faults were too rare in the field data to justify inclusion.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The nature of a software fault from the program-construct point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultNature {
    /// One or more constructs are missing.
    Missing,
    /// A construct is present but wrong.
    Wrong,
    /// A construct is present that should not be (not represented in the
    /// faultload — see module docs).
    Extraneous,
}

impl fmt::Display for FaultNature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultNature::Missing => "missing",
            FaultNature::Wrong => "wrong",
            FaultNature::Extraneous => "extraneous",
        })
    }
}

/// Orthogonal Defect Classification classes used in Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OdcClass {
    /// Value/initialization errors.
    Assignment,
    /// Missing or wrong validation.
    Checking,
    /// Missing or wrong steps of the algorithm.
    Algorithm,
    /// Errors in inter-module interfaces (parameters).
    Interface,
    /// Errors in function/timing (not represented in the faultload).
    Function,
}

impl fmt::Display for OdcClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OdcClass::Assignment => "Assignment",
            OdcClass::Checking => "Checking",
            OdcClass::Algorithm => "Algorithm",
            OdcClass::Interface => "Interface",
            OdcClass::Function => "Function",
        })
    }
}

/// The 12 fault types of the paper's faultload (Table 1).
///
/// Serialization uses the variant names (`"Mifs"`), keeping stored artifacts
/// stable; deserialization (hand-written below) also accepts the paper
/// acronyms (`"MIFS"`), the spelling pack files use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum FaultType {
    /// Missing variable initialization.
    Mvi,
    /// Missing variable assignment using a value.
    Mvav,
    /// Missing variable assignment using an expression.
    Mvae,
    /// Missing "if (cond)" surrounding statement(s).
    Mia,
    /// Missing "AND EXPR" in expression used as branch condition.
    Mlac,
    /// Missing function call.
    Mfc,
    /// Missing "if (cond) { statement(s) }".
    Mifs,
    /// Missing small and localized part of the algorithm.
    Mlpc,
    /// Wrong value assigned to a variable.
    Wvav,
    /// Wrong logical expression used as branch condition.
    Wlec,
    /// Wrong arithmetic expression used in parameter of function call.
    Waep,
    /// Wrong variable used in parameter of function call.
    Wpfv,
}

impl Deserialize for FaultType {
    fn deserialize<'de, R: serde::Read<'de>>(r: &mut R) -> Result<Self, serde::DeError> {
        let s = match r.next()? {
            serde::Token::Str(s) => s,
            other => {
                return Err(serde::DeError::msg(format!(
                    "expected fault-type string, got {}",
                    other.unexpected()
                )))
            }
        };
        FaultType::ALL
            .into_iter()
            .find(|t| s == t.acronym() || s.eq_ignore_ascii_case(t.acronym()))
            .ok_or_else(|| {
                serde::DeError::msg(format!(
                    "unknown fault type `{}` (expected one of MVI, MVAV, MVAE, MIA, MLAC, \
                     MFC, MIFS, MLPC, WVAV, WLEC, WAEP, WPFV, in any case)",
                    serde::excerpt(&s)
                ))
            })
    }
}

impl FaultType {
    /// All 12 fault types, in Table 1 order.
    pub const ALL: [FaultType; 12] = [
        FaultType::Mvi,
        FaultType::Mvav,
        FaultType::Mvae,
        FaultType::Mia,
        FaultType::Mlac,
        FaultType::Mfc,
        FaultType::Mifs,
        FaultType::Mlpc,
        FaultType::Wvav,
        FaultType::Wlec,
        FaultType::Waep,
        FaultType::Wpfv,
    ];

    /// The acronym used throughout the paper (e.g. `"MIFS"`).
    pub fn acronym(self) -> &'static str {
        match self {
            FaultType::Mvi => "MVI",
            FaultType::Mvav => "MVAV",
            FaultType::Mvae => "MVAE",
            FaultType::Mia => "MIA",
            FaultType::Mlac => "MLAC",
            FaultType::Mfc => "MFC",
            FaultType::Mifs => "MIFS",
            FaultType::Mlpc => "MLPC",
            FaultType::Wvav => "WVAV",
            FaultType::Wlec => "WLEC",
            FaultType::Waep => "WAEP",
            FaultType::Wpfv => "WPFV",
        }
    }

    /// Table 1's description column.
    pub fn description(self) -> &'static str {
        match self {
            FaultType::Mvi => "Missing variable initialization",
            FaultType::Mvav => "Missing variable assignment using a value",
            FaultType::Mvae => "Missing variable assignment using an expression",
            FaultType::Mia => "Missing \"if (cond)\" surrounding statement(s)",
            FaultType::Mlac => "Missing \"AND EXPR\" in expression used as branch condition",
            FaultType::Mfc => "Missing function call",
            FaultType::Mifs => "Missing \"If (cond) { statement(s) }\"",
            FaultType::Mlpc => "Missing small and localized part of the algorithm",
            FaultType::Wvav => "Wrong value assigned to a value",
            FaultType::Wlec => "Wrong logical expression used as branch condition",
            FaultType::Waep => "Wrong arithmetic expression used in parameter of function call",
            FaultType::Wpfv => "Wrong variable used in parameter of function call",
        }
    }

    /// The nature axis of the composed classification.
    pub fn nature(self) -> FaultNature {
        match self {
            FaultType::Mvi
            | FaultType::Mvav
            | FaultType::Mvae
            | FaultType::Mia
            | FaultType::Mlac
            | FaultType::Mfc
            | FaultType::Mifs
            | FaultType::Mlpc => FaultNature::Missing,
            FaultType::Wvav | FaultType::Wlec | FaultType::Waep | FaultType::Wpfv => {
                FaultNature::Wrong
            }
        }
    }

    /// The ODC class column of Table 1.
    pub fn odc_class(self) -> OdcClass {
        match self {
            FaultType::Mvi | FaultType::Mvav | FaultType::Mvae | FaultType::Wvav => {
                OdcClass::Assignment
            }
            FaultType::Mia | FaultType::Mlac | FaultType::Wlec => OdcClass::Checking,
            FaultType::Mfc | FaultType::Mifs | FaultType::Mlpc => OdcClass::Algorithm,
            FaultType::Waep | FaultType::Wpfv => OdcClass::Interface,
        }
    }

    /// Field-data coverage (percent of all observed faults) from Table 1.
    pub fn field_coverage_pct(self) -> f64 {
        match self {
            FaultType::Mvi => 2.25,
            FaultType::Mvav => 2.25,
            FaultType::Mvae => 3.0,
            FaultType::Mia => 4.32,
            FaultType::Mlac => 7.89,
            FaultType::Mfc => 8.64,
            FaultType::Mifs => 9.96,
            FaultType::Mlpc => 3.19,
            FaultType::Wvav => 2.44,
            FaultType::Wlec => 3.0,
            FaultType::Waep => 2.25,
            FaultType::Wpfv => 1.5,
        }
    }

    /// Total field coverage of the whole faultload (Table 1's bottom row).
    pub fn total_coverage_pct() -> f64 {
        FaultType::ALL.iter().map(|t| t.field_coverage_pct()).sum()
    }
}

impl fmt::Display for FaultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.acronym())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn twelve_distinct_types() {
        let set: BTreeSet<FaultType> = FaultType::ALL.into_iter().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn total_coverage_matches_table_1() {
        assert!((FaultType::total_coverage_pct() - 50.69).abs() < 1e-9);
    }

    #[test]
    fn natures_match_acronym_prefix() {
        for t in FaultType::ALL {
            let expect = if t.acronym().starts_with('M') {
                FaultNature::Missing
            } else {
                FaultNature::Wrong
            };
            assert_eq!(t.nature(), expect, "{t}");
        }
    }

    #[test]
    fn four_odc_classes_covered() {
        let classes: BTreeSet<OdcClass> = FaultType::ALL.iter().map(|t| t.odc_class()).collect();
        assert_eq!(classes.len(), 4);
        assert!(!classes.contains(&OdcClass::Function));
    }

    #[test]
    fn odc_assignments_match_table_1() {
        assert_eq!(FaultType::Mvi.odc_class(), OdcClass::Assignment);
        assert_eq!(FaultType::Mia.odc_class(), OdcClass::Checking);
        assert_eq!(FaultType::Mlac.odc_class(), OdcClass::Checking);
        assert_eq!(FaultType::Mfc.odc_class(), OdcClass::Algorithm);
        assert_eq!(FaultType::Mifs.odc_class(), OdcClass::Algorithm);
        assert_eq!(FaultType::Waep.odc_class(), OdcClass::Interface);
        assert_eq!(FaultType::Wpfv.odc_class(), OdcClass::Interface);
        assert_eq!(FaultType::Wvav.odc_class(), OdcClass::Assignment);
    }

    #[test]
    fn mifs_is_most_frequent_type() {
        let max = FaultType::ALL
            .into_iter()
            .max_by(|a, b| {
                a.field_coverage_pct()
                    .partial_cmp(&b.field_coverage_pct())
                    .unwrap()
            })
            .unwrap();
        assert_eq!(max, FaultType::Mifs);
    }

    #[test]
    fn display_and_description_nonempty() {
        for t in FaultType::ALL {
            assert!(!t.to_string().is_empty());
            assert!(!t.description().is_empty());
        }
        assert_eq!(FaultType::Mifs.to_string(), "MIFS");
        assert_eq!(FaultNature::Missing.to_string(), "missing");
        assert_eq!(OdcClass::Checking.to_string(), "Checking");
    }
}
