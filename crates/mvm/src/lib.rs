//! `mvm` — the Machine VM: a small, fixed-width virtual instruction set.
//!
//! This crate plays the role x86 machine code plays in the paper: it is the
//! *executable representation* that the G-SWFIT technique scans and mutates.
//! The ISA is deliberately conventional — 32 general registers, a stack, a
//! compare-and-branch style — so that compiled code exhibits the recognizable
//! low-level idioms (`if` → *evaluate; branch-if-zero over body*, `&&` →
//! *chained branch-if-zero to the same target*, calls → *argument registers,
//! `CALL`, result in `r1`*) on which the paper's mutation operators rely.
//!
//! Components:
//!
//! * [`isa`] — instruction definitions plus a bijective 64-bit encoding,
//! * [`image`] — linked code images with symbol tables and a patching API
//!   (the injector's apply/undo entry point),
//! * [`asm`] — a small text assembler used in tests and examples,
//! * [`mem`] — the word-addressed data memory with dirty-page
//!   snapshot/restore,
//! * [`vm`] — the trapping interpreter with an instruction budget (budget
//!   exhaustion models hangs caused by injected faults).
//!
//! # Example
//!
//! ```
//! use mvm::asm::assemble;
//! use mvm::vm::{NoHcalls, Vm};
//! use mvm::mem::Memory;
//!
//! let image = assemble(
//!     r#"
//!     .func add2
//!         add r1, r2, r3
//!         ret
//!     "#,
//! )?;
//! let mut mem = Memory::new(8192);
//! let mut vm = Vm::new();
//! let r = vm.call(&image, &mut mem, &mut NoHcalls, "add2", &[20, 22])?;
//! assert_eq!(r.return_value, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
pub mod image;
pub mod isa;
pub mod mem;
pub mod vm;

pub use image::{CodeImage, FuncInfo, Patch, PatchSet};
pub use isa::{DecodeError, Instr, Opcode, Reg};
pub use mem::{Memory, MemorySnapshot};
pub use vm::{CallError, CallOutcome, HcallHandler, NoHcalls, Trap, Vm, VmConfig, Watchpoint};
