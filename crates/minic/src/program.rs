//! The linked output of the MiniC compiler.

use std::collections::BTreeMap;

use mvm::CodeImage;
use serde::{Deserialize, Serialize};

use crate::construct::Construct;

/// First data-memory address handed to globals. Cells below are reserved for
/// the boot/ABI scratch area.
pub const GLOBALS_BASE: i64 = 16;

/// A compiled and linked MiniC program.
///
/// Wraps the executable [`CodeImage`] together with the data-layout and the
/// ground-truth [`Construct`] map.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Program {
    image: CodeImage,
    globals: BTreeMap<String, i64>,
    global_inits: Vec<(i64, i64)>,
    constructs: Vec<Construct>,
    data_end: i64,
}

impl Program {
    pub(crate) fn new(
        image: CodeImage,
        globals: BTreeMap<String, i64>,
        global_inits: Vec<(i64, i64)>,
        constructs: Vec<Construct>,
        data_end: i64,
    ) -> Program {
        Program {
            image,
            globals,
            global_inits,
            constructs,
            data_end,
        }
    }

    /// The executable image.
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// Mutable access to the image — the fault injector's patch point.
    pub fn image_mut(&mut self) -> &mut CodeImage {
        &mut self.image
    }

    /// Data address of each global variable.
    pub fn globals(&self) -> &BTreeMap<String, i64> {
        &self.globals
    }

    /// The data address of global `name`, if declared.
    pub fn global_addr(&self, name: &str) -> Option<i64> {
        self.globals.get(name).copied()
    }

    /// `(address, value)` pairs the host must write before first execution.
    pub fn global_inits(&self) -> &[(i64, i64)] {
        &self.global_inits
    }

    /// Ground-truth construct map (not visible to the scanner).
    pub fn constructs(&self) -> &[Construct] {
        &self.constructs
    }

    /// One past the highest data address used by globals.
    pub fn data_end(&self) -> i64 {
        self.data_end
    }
}
