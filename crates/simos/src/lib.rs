//! `simos` — the simulated operating system: the paper's fault-injection
//! target (FIT).
//!
//! The paper injects software faults into the OS beneath the benchmark
//! target, never into the benchmark target itself (§2.3). Our OS is a
//! services layer *written in MiniC and compiled to MVM machine code*, so
//! the G-SWFIT scanner and injector operate on it exactly as the paper's
//! tooling operated on ntdll/kernel32.
//!
//! Two **editions** mirror the paper's Windows 2000 / Windows XP pair:
//!
//! * [`Edition::Nimbus2000`] — the compact build,
//! * [`Edition::NimbusXp`] — the larger build with additional validation,
//!   quick-list allocation and auditing code; more code ⇒ more fault
//!   locations (the paper's Table 3: XP's faultload is ~70 % larger).
//!
//! The public API consists of 21 functions named after the Table 2
//! analogues, split over two modules: [`Module::NtCore`] (≈ ntdll) and
//! [`Module::KBase`] (≈ kernel32, thin validating wrappers over NtCore).
//! Below the OS sits the [`device`] layer (raw block/file store reached via
//! hypercalls) which models hardware and is *not* a fault target.
//!
//! # Example
//!
//! ```
//! use simos::{Edition, Os, OsApi};
//!
//! let mut os = Os::boot(Edition::Nimbus2000)?;
//! os.devices_mut().add_file("/web/index.html", b"hello world");
//! let p = os.call(OsApi::RtlAllocateHeap, &[64])?.value;
//! assert!(p > 0);
//! os.poke_cstr(p, "C:/web/index.html")?;
//! let q = os.call(OsApi::RtlAllocateHeap, &[64])?.value;
//! os.call(OsApi::RtlDosPathToNative, &[p, q])?;
//! let h = os.call(OsApi::NtOpenFile, &[q])?.value;
//! assert!(h > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod api;
pub mod device;
pub mod os;
pub mod source;

pub use api::{Module, OsApi};
pub use device::{DeviceFile, DeviceStore};
pub use os::{
    compile_count, image_fingerprint, reboot_count, CallResult, Edition, Os, OsCallError,
    OsSnapshot,
};
