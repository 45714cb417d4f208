//! `swfit-core` — G-SWFIT: Generic Software Fault Injection Technique.
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! methodology for building **faultloads based on software faults** for
//! dependability benchmarking (Durães & Madeira, DSN 2004).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`taxonomy`] — the 12 representative fault types of Table 1, classified
//!   by *nature* (missing / wrong / extraneous construct) and ODC class, with
//!   the field-data coverage percentages.
//! * [`operators`] — the mutation-operator contract and the shared
//!   code-shape analyses: each operator is a *search pattern* over decoded
//!   machine code plus a *low-level mutation* (paper §2.2). Operators never
//!   see source code or compiler metadata.
//! * [`pack`] — operators as data: the serde-loadable [`pack::FaultPack`]
//!   format and its interpreter. The classic 12 ship as the bundled
//!   `odc-classic` pack; user packs extend the fault model without code.
//! * [`scanner`] — step 1 of G-SWFIT: scans a target executable and produces
//!   the map of fault locations, i.e. the [`faultload::Faultload`].
//!   Assembled via [`Scanner::builder`] from packs and custom operators.
//! * [`injector`] — step 2: applies one pre-computed mutation at a time to a
//!   running target's code (and undoes it), plus the *profile mode* used for
//!   the intrusiveness evaluation of Table 4.
//! * [`profile`] — the faultload fine-tuning of §2.4: API-call tracing,
//!   per-function representativeness, intersection across benchmark targets
//!   (Table 2).
//! * [`accuracy`] — scanner precision/recall against the compiler's
//!   ground-truth construct map (the accuracy argument the paper inherits
//!   from its reference \[13\]).
//! * [`hardware`] — the paper's suggested extension: a transient bit-flip
//!   fault model sharing the same two-step structure and injector.
//!
//! # Example
//!
//! ```
//! use swfit_core::scanner::Scanner;
//! use swfit_core::taxonomy::FaultType;
//!
//! let program = minic::compile(
//!     "target",
//!     r#"
//!     fn check(a, b) {
//!         if (a > 0 && b > 0) { return a + b; }
//!         return 0;
//!     }
//!     "#,
//! )?;
//! let faultload = Scanner::standard().scan_image(program.image());
//! assert!(faultload.count_of(FaultType::Mifs) >= 1);
//! assert!(faultload.count_of(FaultType::Mlac) >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod accuracy;
pub mod faultload;
pub mod funcview;
pub mod hardware;
pub mod injector;
pub mod operators;
pub mod pack;
pub mod profile;
pub mod scanner;
pub mod taxonomy;

pub use faultload::{FaultDef, Faultload};
pub use hardware::{BitFlip, HardwareFaultload};
pub use injector::{InjectError, Injector};
pub use operators::Mutation;
pub use pack::{FaultPack, PackError, PackRef};
pub use profile::{ApiTrace, ProfileSet};
pub use scanner::{ScanError, Scanner, ScannerBuilder};
pub use taxonomy::{FaultNature, FaultType, OdcClass};
