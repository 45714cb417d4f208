//! Step 2 of G-SWFIT: runtime injection of pre-computed mutations.
//!
//! The injector owns the *active fault* state: at most one fault is present
//! in the target at a time (the paper applies each fault for a 10-second
//! slot, then removes it). Injection is a handful of word writes with an
//! undo log — deliberately cheap, because the paper's intrusiveness argument
//! (Table 4) rests on step 2 doing almost no work.
//!
//! The injector has one mode: it always patches the target. The paper's
//! profile mode, which leaves the target untouched to measure the injector's
//! own overhead, needs no injector at all: `depbench`'s
//! `Campaign::run_profile_mode` runs the campaign's slots with nothing
//! injected and models the injector's bookkeeping as server busy time.

use std::fmt;

use mvm::{CodeImage, PatchSet};

use crate::faultload::FaultDef;

/// Errors from injection operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectError {
    /// A fault is already active; restore it first.
    AlreadyInjected {
        /// The id of the currently active fault.
        active: String,
    },
    /// The patch addresses do not fit the target image.
    BadPatch(String),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::AlreadyInjected { active } => {
                write!(f, "fault `{active}` is still injected")
            }
            InjectError::BadPatch(m) => write!(f, "patch does not fit target: {m}"),
        }
    }
}

impl std::error::Error for InjectError {}

/// The G-SWFIT injector.
#[derive(Debug, Default)]
pub struct Injector {
    active: Option<(String, PatchSet)>,
}

impl Injector {
    /// An injector with no active fault.
    pub fn new() -> Injector {
        Injector::default()
    }

    /// Injects `fault` into `image`.
    ///
    /// # Errors
    ///
    /// [`InjectError::AlreadyInjected`] when a fault is active;
    /// [`InjectError::BadPatch`] when a patch address is out of range.
    pub fn inject(&mut self, image: &mut CodeImage, fault: &FaultDef) -> Result<(), InjectError> {
        if let Some((id, _)) = &self.active {
            return Err(InjectError::AlreadyInjected { active: id.clone() });
        }
        let undo = image
            .apply(&fault.patches)
            .map_err(|e| InjectError::BadPatch(e.to_string()))?;
        self.active = Some((fault.id.clone(), undo));
        Ok(())
    }

    /// Removes the active fault (no-op when none is active), restoring the
    /// pristine code words.
    pub fn restore(&mut self, image: &mut CodeImage) {
        if let Some((_, undo)) = self.active.take() {
            image.revert(&undo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;
    use minic::compile;
    use mvm::{Memory, NoHcalls, Vm};

    const SRC: &str = r#"
        fn f(a, b) {
            var r = 0;
            if (a > b) { r = 1; }
            return r;
        }
    "#;

    fn setup() -> (minic::Program, crate::faultload::Faultload) {
        let p = compile("t", SRC).unwrap();
        let fl = Scanner::standard().scan_image(p.image());
        (p, fl)
    }

    fn call_f(p: &minic::Program, a: i64, b: i64) -> i64 {
        let mut vm = Vm::new();
        let mut mem = Memory::new(8192);
        vm.call(p.image(), &mut mem, &mut NoHcalls, "f", &[a, b])
            .unwrap()
            .return_value
    }

    #[test]
    fn inject_restore_cycle_preserves_pristine_image() {
        let (mut p, fl) = setup();
        let before = p.image().words().to_vec();
        let mut inj = Injector::new();
        for fault in &fl.faults {
            inj.inject(p.image_mut(), fault).unwrap();
            inj.restore(p.image_mut());
            assert_eq!(p.image().words(), &before[..], "{} leaked", fault.id);
        }
    }

    #[test]
    fn double_injection_is_rejected() {
        let (mut p, fl) = setup();
        let mut inj = Injector::new();
        inj.inject(p.image_mut(), &fl.faults[0]).unwrap();
        let err = inj.inject(p.image_mut(), &fl.faults[1]).unwrap_err();
        assert!(matches!(err, InjectError::AlreadyInjected { .. }));
        inj.restore(p.image_mut());
        inj.inject(p.image_mut(), &fl.faults[1]).unwrap();
    }

    #[test]
    fn injected_fault_changes_behaviour() {
        let (mut p, fl) = setup();
        let mifs = fl
            .faults
            .iter()
            .find(|f| f.fault_type == crate::taxonomy::FaultType::Mifs)
            .unwrap();
        let mut inj = Injector::new();
        inj.inject(p.image_mut(), mifs).unwrap();
        assert_eq!(call_f(&p, 5, 3), 0); // guarded assignment is gone
        inj.restore(p.image_mut());
        assert_eq!(call_f(&p, 5, 3), 1);
    }

    #[test]
    fn restore_without_active_fault_is_noop() {
        let (mut p, _) = setup();
        let before = p.image().words().to_vec();
        let mut inj = Injector::new();
        inj.restore(p.image_mut());
        assert_eq!(p.image().words(), &before[..]);
    }

    #[test]
    fn bad_patch_reports_error() {
        let (mut p, _) = setup();
        let bogus = crate::faultload::FaultDef {
            id: "BOGUS".into(),
            fault_type: crate::taxonomy::FaultType::Mfc,
            func: "f".into(),
            site: 0,
            patches: vec![mvm::Patch {
                addr: 99_999,
                new_word: 0,
            }],
            note: String::new(),
        };
        let mut inj = Injector::new();
        assert!(matches!(
            inj.inject(p.image_mut(), &bogus),
            Err(InjectError::BadPatch(_))
        ));
    }
}
