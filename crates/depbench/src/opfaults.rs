//! Operator-fault extension.
//!
//! The paper's conclusion suggests completing the benchmark with *operator
//! faults* — administrator mistakes — alongside software faults. This
//! module models the classic web-server administration errors on the
//! served file tree and configuration:
//!
//! * deleting a document that is still linked,
//! * truncating a file during a botched update,
//! * restoring the wrong content from backup (content swap),
//! * breaking the virtual-root configuration (every path misses).
//!
//! Operator faults are applied to the *device/document layer*, not the OS
//! code, so they compose freely with G-SWFIT slots: a campaign can mix
//! fault models, as a full dependability benchmark would.

use serde::{Deserialize, Serialize};
use simkit::SimRng;
use simos::{DeviceFile, Os};
use specweb::FileSet;

/// One administrator mistake.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorFault {
    /// A linked document was deleted (`rm` of the wrong file).
    DeleteFile {
        /// Native path of the victim.
        path: String,
    },
    /// A document was truncated to `keep` cells mid-update.
    TruncateFile {
        /// Native path of the victim.
        path: String,
        /// Cells left in place.
        keep: usize,
    },
    /// Two documents' contents were swapped (wrong backup restored).
    SwapContent {
        /// First native path.
        a: String,
        /// Second native path.
        b: String,
    },
    /// The virtual root was misconfigured: every lookup misses.
    BreakVirtualRoot,
}

impl OperatorFault {
    /// Stable identifier for reports.
    pub fn id(&self) -> String {
        match self {
            OperatorFault::DeleteFile { path } => format!("OP-DEL@{path}"),
            OperatorFault::TruncateFile { path, keep } => format!("OP-TRUNC@{path}:{keep}"),
            OperatorFault::SwapContent { a, b } => format!("OP-SWAP@{a}<->{b}"),
            OperatorFault::BreakVirtualRoot => "OP-VROOT".to_string(),
        }
    }
}

/// A saved device state that can undo an operator fault.
#[derive(Debug)]
pub struct OperatorUndo {
    /// File handles as they were, sharing the content.
    saved: Vec<(String, DeviceFile)>,
    unlinked: Vec<(String, usize)>,
}

/// Applies `fault` to the OS's device layer, returning the undo record.
pub fn apply_operator_fault(os: &mut Os, fault: &OperatorFault) -> OperatorUndo {
    let handle = |os: &Os, path: &str| os.devices().handle(path).cloned();
    let mut saved = Vec::new();
    let mut unlinked = Vec::new();
    match fault {
        OperatorFault::DeleteFile { path } => {
            // True unlink: subsequent opens fail with "not found".
            if let Some(id) = os.devices_mut().unlink(path) {
                unlinked.push((path.clone(), id));
            }
        }
        OperatorFault::TruncateFile { path, keep } => {
            if let Some(file) = handle(os, path) {
                os.devices_mut().install(path, file.truncated(*keep));
                saved.push((path.clone(), file));
            }
        }
        OperatorFault::SwapContent { a, b } => {
            if let (Some(fa), Some(fb)) = (handle(os, a), handle(os, b)) {
                os.devices_mut().install(a, fb.clone());
                os.devices_mut().install(b, fa.clone());
                saved.push((a.clone(), fa));
                saved.push((b.clone(), fb));
            }
        }
        OperatorFault::BreakVirtualRoot => {
            // The misconfigured virtual root makes *every* lookup miss.
            for path in os.devices().paths() {
                if let Some(id) = os.devices_mut().unlink(&path) {
                    unlinked.push((path, id));
                }
            }
        }
    }
    OperatorUndo { saved, unlinked }
}

/// Restores the device state recorded by [`apply_operator_fault`].
pub fn undo_operator_fault(os: &mut Os, undo: OperatorUndo) {
    for (path, id) in undo.unlinked {
        os.devices_mut().link(&path, id);
    }
    for (path, file) in undo.saved {
        os.devices_mut().install(&path, file);
    }
}

/// Generates a deterministic operator faultload over a file set: one
/// delete, one truncate and one swap per directory sample.
pub fn generate_operator_faults(
    fileset: &FileSet,
    rng: &mut SimRng,
    count: usize,
) -> Vec<OperatorFault> {
    let entries = fileset.entries();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let pick = entries[rng.index(entries.len())].clone();
        let fault = match i % 3 {
            0 => OperatorFault::DeleteFile {
                path: pick.native_path,
            },
            1 => OperatorFault::TruncateFile {
                keep: (pick.len / 2) as usize,
                path: pick.native_path,
            },
            _ => {
                let other = entries[rng.index(entries.len())].clone();
                OperatorFault::SwapContent {
                    a: pick.native_path,
                    b: other.native_path,
                }
            }
        };
        out.push(fault);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::Edition;
    use specweb::FileSetConfig;

    fn setup() -> (Os, FileSet) {
        let mut os = Os::boot(Edition::Nimbus2000).unwrap();
        let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
        (os, fs)
    }

    #[test]
    fn delete_and_undo() {
        let (mut os, fs) = setup();
        let victim = fs.entries()[0].native_path.clone();
        let before = os.devices().file(&victim).unwrap().to_vec();
        let undo = apply_operator_fault(
            &mut os,
            &OperatorFault::DeleteFile {
                path: victim.clone(),
            },
        );
        assert_eq!(os.devices().file(&victim), None, "unlinked");
        undo_operator_fault(&mut os, undo);
        assert_eq!(os.devices().file(&victim).unwrap(), &before[..]);
    }

    #[test]
    fn truncate_halves_content() {
        let (mut os, fs) = setup();
        let victim = fs.entries()[5].clone();
        let undo = apply_operator_fault(
            &mut os,
            &OperatorFault::TruncateFile {
                path: victim.native_path.clone(),
                keep: victim.len as usize / 2,
            },
        );
        assert_eq!(
            os.devices().file_size(&victim.native_path),
            Some(victim.len as usize / 2)
        );
        undo_operator_fault(&mut os, undo);
        assert_eq!(
            os.devices().file_size(&victim.native_path),
            Some(victim.len as usize)
        );
    }

    #[test]
    fn swap_exchanges_contents() {
        let (mut os, fs) = setup();
        let a = fs.entries()[0].native_path.clone();
        let b = fs.entries()[1].native_path.clone();
        let ca = os.devices().file(&a).unwrap().to_vec();
        let cb = os.devices().file(&b).unwrap().to_vec();
        let undo = apply_operator_fault(
            &mut os,
            &OperatorFault::SwapContent {
                a: a.clone(),
                b: b.clone(),
            },
        );
        assert_eq!(os.devices().file(&a).unwrap(), &cb[..]);
        assert_eq!(os.devices().file(&b).unwrap(), &ca[..]);
        undo_operator_fault(&mut os, undo);
        assert_eq!(os.devices().file(&a).unwrap(), &ca[..]);
        assert_eq!(os.devices().file(&b).unwrap(), &cb[..]);
    }

    #[test]
    fn virtual_root_breaks_everything_and_undoes() {
        let (mut os, fs) = setup();
        let n = os.devices().paths().len();
        assert!(n > 0);
        let undo = apply_operator_fault(&mut os, &OperatorFault::BreakVirtualRoot);
        assert!(os.devices().paths().is_empty());
        undo_operator_fault(&mut os, undo);
        assert_eq!(os.devices().paths().len(), n);
        let any = &fs.entries()[0].native_path;
        assert!(os.devices().file(any).is_some());
    }

    #[test]
    fn generator_is_deterministic_and_ids_stable() {
        let (_, fs) = setup();
        let mut r1 = SimRng::seed_from_u64(4);
        let mut r2 = SimRng::seed_from_u64(4);
        let a = generate_operator_faults(&fs, &mut r1, 12);
        let b = generate_operator_faults(&fs, &mut r2, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for f in &a {
            assert!(!f.id().is_empty());
        }
    }
}
