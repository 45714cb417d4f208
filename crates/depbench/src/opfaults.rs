//! Operator-fault extension.
//!
//! The paper's conclusion suggests completing the benchmark with *operator
//! faults* — administrator mistakes — alongside software faults. This
//! module models the classic web-server administration errors on the
//! served file tree:
//!
//! * deleting a document that is still linked,
//! * truncating a file during a botched update,
//! * restoring the wrong content from backup (content swap).
//!
//! Operator faults are applied to the *device/document layer*, not the OS
//! code. [`Campaign::run_operator_faults`](crate::Campaign::run_operator_faults)
//! runs them through the same slots as G-SWFIT faults: each is applied
//! after the warm-up, where a code patch would be injected, and the next
//! slot's reset puts back the checkpoint's whole device store.

use serde::{Deserialize, Serialize};
use simkit::SimRng;
use simos::Os;
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
}

impl OperatorFault {
    /// Stable identifier for reports.
    pub fn id(&self) -> String {
        match self {
            OperatorFault::DeleteFile { path } => format!("OP-DEL@{path}"),
            OperatorFault::TruncateFile { path, keep } => format!("OP-TRUNC@{path}:{keep}"),
            OperatorFault::SwapContent { a, b } => format!("OP-SWAP@{a}<->{b}"),
        }
    }
}

/// Applies `fault` to the OS's device layer. A path that is not linked
/// leaves the store unchanged. Nothing here undoes the fault: restore an
/// [`Os::snapshot`] taken before it.
pub fn apply_operator_fault(os: &mut Os, fault: &OperatorFault) {
    let devices = os.devices_mut();
    match fault {
        OperatorFault::DeleteFile { path } => {
            // True unlink: subsequent opens fail with "not found".
            devices.unlink(path);
        }
        OperatorFault::TruncateFile { path, keep } => {
            if let Some(file) = devices.handle(path).map(|f| f.truncated(*keep)) {
                devices.install(path, file);
            }
        }
        OperatorFault::SwapContent { a, b } => {
            if let (Some(fa), Some(fb)) = (devices.handle(a).cloned(), devices.handle(b).cloned()) {
                devices.install(a, fb);
                devices.install(b, fa);
            }
        }
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
        let snap = os.snapshot();
        let victim = fs.entries()[0].native_path.clone();
        let before = os.devices().file(&victim).unwrap().to_vec();
        apply_operator_fault(
            &mut os,
            &OperatorFault::DeleteFile {
                path: victim.clone(),
            },
        );
        assert_eq!(os.devices().file(&victim), None, "unlinked");
        os.restore_snapshot(&snap);
        assert_eq!(os.devices().file(&victim).unwrap(), &before[..]);
    }

    #[test]
    fn truncate_halves_content() {
        let (mut os, fs) = setup();
        let snap = os.snapshot();
        let victim = fs.entries()[5].clone();
        apply_operator_fault(
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
        os.restore_snapshot(&snap);
        assert_eq!(
            os.devices().file_size(&victim.native_path),
            Some(victim.len as usize)
        );
    }

    #[test]
    fn swap_exchanges_contents() {
        let (mut os, fs) = setup();
        let snap = os.snapshot();
        let a = fs.entries()[0].native_path.clone();
        let b = fs.entries()[1].native_path.clone();
        let ca = os.devices().file(&a).unwrap().to_vec();
        let cb = os.devices().file(&b).unwrap().to_vec();
        apply_operator_fault(
            &mut os,
            &OperatorFault::SwapContent {
                a: a.clone(),
                b: b.clone(),
            },
        );
        assert_eq!(os.devices().file(&a).unwrap(), &cb[..]);
        assert_eq!(os.devices().file(&b).unwrap(), &ca[..]);
        os.restore_snapshot(&snap);
        assert_eq!(os.devices().file(&a).unwrap(), &ca[..]);
        assert_eq!(os.devices().file(&b).unwrap(), &cb[..]);
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
