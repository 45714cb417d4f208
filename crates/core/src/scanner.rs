//! Step 1 of G-SWFIT: scanning a target executable for fault locations.
//!
//! The scanner walks every linked function of a [`CodeImage`], runs the whole
//! operator library over each, and assembles the results into a
//! [`Faultload`] — *"a map of the target identifying the locations suitable
//! for the emulation of specific fault types"* (paper §2.2, Fig. 2). The
//! scan happens once, before experimentation; injection later replays the
//! pre-computed patches.
//!
//! Since the operators-as-data redesign the library is assembled with a
//! builder: the bundled `odc-classic` pack, user packs loaded from disk, and
//! single [`CompiledOperator`]s picked from a pack compose freely —
//!
//! ```
//! use swfit_core::Scanner;
//!
//! let scanner = Scanner::builder().classic().build().unwrap();
//! assert_eq!(scanner.operator_count(), 12);
//! ```
//!
//! and every faultload a scanner produces is stamped with the provenance
//! ([`PackRef`]) of the packs that generated it.

use std::fmt;

use mvm::CodeImage;

use crate::faultload::{FaultDef, Faultload};
use crate::funcview::FuncView;
use crate::pack::{self, CompiledOperator, FaultPack, PackError, PackRef};

/// Why a scanner could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScanError {
    /// The builder was given no operators at all.
    EmptyLibrary,
    /// Two operators (across packs and single-operator additions) share an id,
    /// which would collide fault ids.
    DuplicateOperatorId {
        /// The colliding id.
        id: String,
    },
    /// A pack failed to load, validate or compile.
    Pack(PackError),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::EmptyLibrary => {
                write!(f, "scanner has no operators (add a pack or an operator)")
            }
            ScanError::DuplicateOperatorId { id } => {
                write!(f, "duplicate operator id `{id}` across the operator set")
            }
            ScanError::Pack(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScanError::Pack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PackError> for ScanError {
    fn from(e: PackError) -> Self {
        ScanError::Pack(e)
    }
}

/// Assembles a [`Scanner`] from packs and single operators.
#[derive(Default)]
pub struct ScannerBuilder {
    packs: Vec<FaultPack>,
    operators: Vec<CompiledOperator>,
}

impl ScannerBuilder {
    /// Adds the bundled `odc-classic` pack (the 12 operators of Table 1).
    pub fn classic(self) -> Self {
        self.pack(pack::classic().clone())
    }

    /// Adds a fault-model pack; its operators scan after any already added.
    pub fn pack(mut self, pack: FaultPack) -> Self {
        self.packs.push(pack);
        self
    }

    /// Loads a pack file and adds it.
    ///
    /// # Errors
    ///
    /// As [`FaultPack::load`], wrapped in [`ScanError::Pack`].
    pub fn pack_file(self, path: impl AsRef<std::path::Path>) -> Result<Self, ScanError> {
        Ok(self.pack(FaultPack::load(path)?))
    }

    /// Adds a single operator (e.g. one picked from a pack for an
    /// ablation). Single operators carry no pack provenance; faultloads
    /// they contribute to are stamped only with the packs also present.
    pub fn operator(mut self, op: CompiledOperator) -> Self {
        self.operators.push(op);
        self
    }

    /// Compiles every pack and assembles the scanner.
    ///
    /// # Errors
    ///
    /// [`ScanError::Pack`] if a pack fails validation/compilation,
    /// [`ScanError::DuplicateOperatorId`] if two operators share an id,
    /// [`ScanError::EmptyLibrary`] if nothing was added.
    pub fn build(self) -> Result<Scanner, ScanError> {
        let mut operators = Vec::new();
        let mut packs = Vec::new();
        for p in &self.packs {
            operators.extend(p.compile()?);
            packs.push(p.pack_ref());
        }
        operators.extend(self.operators);
        if operators.is_empty() {
            return Err(ScanError::EmptyLibrary);
        }
        let mut ids: Vec<&str> = operators.iter().map(|op| op.id()).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScanError::DuplicateOperatorId { id: w[0].into() });
        }
        Ok(Scanner { operators, packs })
    }
}

/// The faultload generator: an operator library bound to a scan routine.
pub struct Scanner {
    operators: Vec<CompiledOperator>,
    packs: Vec<PackRef>,
}

impl Scanner {
    /// Starts assembling a scanner from packs and operators.
    pub fn builder() -> ScannerBuilder {
        ScannerBuilder::default()
    }

    /// A scanner with the full 12-operator library of Table 1 (the bundled
    /// `odc-classic` pack).
    pub fn standard() -> Scanner {
        Scanner::builder()
            .classic()
            .build()
            .expect("bundled odc-classic pack is valid")
    }

    /// Number of operators in the library.
    pub fn operator_count(&self) -> usize {
        self.operators.len()
    }

    /// The operators in scan order.
    pub fn operators(&self) -> &[CompiledOperator] {
        &self.operators
    }

    /// Provenance of the packs this scanner was built from, in order.
    pub fn packs(&self) -> &[PackRef] {
        &self.packs
    }

    /// Scans every function of `image`.
    pub fn scan_image(&self, image: &CodeImage) -> Faultload {
        self.scan(image, None)
    }

    /// Scans only the named functions of `image` — used after the profiling
    /// phase restricts the FIT to its most-exercised subset (§2.4).
    pub fn scan_functions(&self, image: &CodeImage, funcs: &[String]) -> Faultload {
        self.scan(image, Some(funcs))
    }

    fn scan(&self, image: &CodeImage, restrict: Option<&[String]>) -> Faultload {
        let mut faultload = Faultload::new(image.name(), image.fingerprint());
        faultload.packs = self.packs.clone();
        for view in FuncView::all_of(image) {
            if let Some(allowed) = restrict {
                if !allowed.contains(&view.name) {
                    continue;
                }
            }
            for op in &self.operators {
                for m in op.scan(&view) {
                    faultload.faults.push(FaultDef {
                        id: format!("{}@{}+{}", op.id(), view.name, m.site - view.entry),
                        fault_type: op.fault_type(),
                        func: view.name.clone(),
                        site: m.site,
                        patches: m.patches,
                        note: m.note,
                    });
                }
            }
        }
        faultload
    }
}

impl Default for Scanner {
    fn default() -> Self {
        Scanner::standard()
    }
}

impl fmt::Debug for Scanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Ids and pack provenance are what identifies a scanner; the full
        // operator definitions would drown them.
        f.debug_struct("Scanner")
            .field(
                "operators",
                &self.operators.iter().map(|op| op.id()).collect::<Vec<_>>(),
            )
            .field("packs", &self.packs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::classic_op;
    use crate::taxonomy::FaultType;
    use minic::compile;

    const SRC: &str = r#"
        fn helper(x) { return x * 2; }
        fn alpha(a, b) {
            var r = 0;
            if (a > 0 && b > 0) { r = a + b; }
            helper(r);
            return r;
        }
        fn beta(a) {
            var x = 3;
            if (a != 0) { x = a; }
            return helper(x);
        }
    "#;

    #[test]
    fn scan_finds_multiple_types_across_functions() {
        let p = compile("os", SRC).unwrap();
        let fl = Scanner::standard().scan_image(p.image());
        assert_eq!(fl.target, "os");
        assert!(fl.count_of(FaultType::Mifs) >= 2, "{fl:?}");
        assert!(fl.count_of(FaultType::Mia) >= 2);
        assert!(fl.count_of(FaultType::Mlac) >= 1);
        assert!(fl.count_of(FaultType::Mfc) >= 1);
        assert!(fl.count_of(FaultType::Mvi) >= 2);
        assert!(fl.count_of(FaultType::Wvav) >= 2);
    }

    #[test]
    fn fault_ids_are_unique_and_descriptive() {
        let p = compile("os", SRC).unwrap();
        let fl = Scanner::standard().scan_image(p.image());
        let ids: std::collections::BTreeSet<&str> =
            fl.faults.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids.len(), fl.len(), "duplicate fault ids");
        assert!(fl.faults.iter().all(|f| f.id.contains('@')));
    }

    #[test]
    fn restricted_scan_only_touches_named_functions() {
        let p = compile("os", SRC).unwrap();
        let fl = Scanner::standard().scan_functions(p.image(), &["beta".to_string()]);
        assert!(!fl.is_empty());
        assert!(fl.faults.iter().all(|f| f.func == "beta"));
    }

    #[test]
    fn custom_operator_library() {
        let p = compile("os", SRC).unwrap();
        let s = Scanner::builder()
            .operator(classic_op("MIFS"))
            .build()
            .unwrap();
        assert_eq!(s.operator_count(), 1);
        let fl = s.scan_image(p.image());
        assert!(fl.faults.iter().all(|f| f.fault_type == FaultType::Mifs));
        // No packs contributed, so no provenance is stamped.
        assert!(fl.packs.is_empty());
    }

    #[test]
    fn empty_builder_is_a_typed_error() {
        assert_eq!(
            Scanner::builder().build().unwrap_err(),
            ScanError::EmptyLibrary
        );
    }

    #[test]
    fn duplicate_operator_ids_are_a_typed_error() {
        // Classic twice: every id collides; the first (sorted) is reported.
        let err = Scanner::builder().classic().classic().build().unwrap_err();
        assert!(
            matches!(&err, ScanError::DuplicateOperatorId { id } if id == "MFC"),
            "got {err}"
        );
        // A single operator can collide with a pack operator too.
        let err = Scanner::builder()
            .classic()
            .operator(classic_op("MIFS"))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScanError::DuplicateOperatorId { id } if id == "MIFS"
        ));
    }

    #[test]
    fn pack_file_surfaces_io_errors() {
        let err = Scanner::builder()
            .pack_file("/nonexistent/pack.json")
            .err()
            .unwrap();
        assert!(matches!(err, ScanError::Pack(PackError::Io { .. })));
        assert!(err.to_string().contains("/nonexistent/pack.json"));
    }

    #[test]
    fn every_scan_stamps_fingerprint_and_pack_provenance() {
        let p = compile("os", SRC).unwrap();
        let full = Scanner::standard().scan_image(p.image());
        assert_eq!(full.fingerprint, p.image().fingerprint());
        assert_eq!(full.packs, vec![pack::classic().pack_ref()]);
        let restricted = Scanner::standard().scan_functions(p.image(), &["beta".to_string()]);
        assert_eq!(restricted.fingerprint, p.image().fingerprint());
        assert_eq!(restricted.packs.len(), 1);
    }

    #[test]
    fn scan_is_deterministic() {
        let p = compile("os", SRC).unwrap();
        let a = Scanner::standard().scan_image(p.image());
        let b = Scanner::standard().scan_image(p.image());
        assert_eq!(a, b);
    }

    #[test]
    fn all_patches_fall_inside_their_function() {
        let p = compile("os", SRC).unwrap();
        let fl = Scanner::standard().scan_image(p.image());
        for f in &fl.faults {
            let info = p.image().func(&f.func).unwrap();
            for patch in &f.patches {
                assert!(
                    info.contains(patch.addr),
                    "{}: patch at {} escapes {}..{}",
                    f.id,
                    patch.addr,
                    info.entry,
                    info.end
                );
            }
        }
    }
}
