//! Instruction-set definition and the 64-bit word encoding.
//!
//! Every instruction encodes to exactly one `u64`:
//!
//! ```text
//!  63      56 55      48 47      40 39      32 31                0
//! +----------+----------+----------+----------+------------------+
//! |  opcode  |    rd    |   rs1    |   rs2    |   imm (i32)      |
//! +----------+----------+----------+----------+------------------+
//! ```
//!
//! The encoding is bijective over valid instructions: `decode(encode(i)) ==
//! i`, and decoding rejects unknown opcodes, out-of-range registers and
//! nonzero unused fields. That strictness matters for the G-SWFIT scanner: a
//! mutated image must still decode, and a pattern match must never be fooled
//! by garbage in ignored bits.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A register index `r0`–`r31`.
///
/// `r0` reads as zero and ignores writes (RISC-style hard zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 32;

    /// Hard-wired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return-value register (ABI).
    pub const RV: Reg = Reg(1);
    /// First argument register (ABI); arguments occupy `r2..=r9`.
    pub const A0: Reg = Reg(2);
    /// Last argument register (ABI).
    pub const A7: Reg = Reg(9);
    /// First caller-saved temporary (ABI); temporaries occupy `r10..=r25`.
    pub const T0: Reg = Reg(10);
    /// Frame pointer (ABI).
    pub const FP: Reg = Reg(29);
    /// Stack pointer (ABI).
    pub const SP: Reg = Reg(30);

    /// Creates a register, validating the index.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadRegister`] if `idx >= 32`.
    pub fn new(idx: u8) -> Result<Reg, DecodeError> {
        if (idx as usize) < Reg::COUNT {
            Ok(Reg(idx))
        } else {
            Err(DecodeError::BadRegister(idx))
        }
    }

    /// The `n`-th argument register (`n < 8`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[inline]
    pub fn arg(n: usize) -> Reg {
        assert!(n < 8, "ABI has 8 argument registers, asked for #{n}");
        Reg(2 + n as u8)
    }

    /// The register index, `0..32`.
    ///
    /// The mask is a no-op (construction guarantees `0..32`) but lets the
    /// compiler drop the bounds check on every `regs[r.index()]` in the
    /// dispatch loop — three checks per executed instruction otherwise.
    pub const fn index(self) -> usize {
        (self.0 & 31) as usize
    }

    /// True if this is an argument register (`r2..=r9`).
    pub fn is_arg(self) -> bool {
        (Self::A0.0..=Self::A7.0).contains(&self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::FP => write!(f, "fp"),
            Reg::SP => write!(f, "sp"),
            _ => write!(f, "r{}", self.0),
        }
    }
}

/// Operation codes. Stable numeric values — they are part of the image format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Opcode {
    /// No operation. Mutations that *remove* constructs overwrite with NOPs.
    Nop = 0x00,
    /// Stop the machine (top-level return).
    Halt = 0x01,
    /// `rd = rs1`
    Mov = 0x02,
    /// `rd = imm` (sign-extended 32-bit immediate)
    Ldi = 0x03,
    /// `rd = rs1 + rs2`
    Add = 0x10,
    /// `rd = rs1 - rs2`
    Sub = 0x11,
    /// `rd = rs1 * rs2`
    Mul = 0x12,
    /// `rd = rs1 / rs2` (signed; traps on zero divisor)
    Div = 0x13,
    /// `rd = rs1 % rs2` (signed; traps on zero divisor)
    Mod = 0x14,
    /// `rd = rs1 & rs2`
    And = 0x15,
    /// `rd = rs1 | rs2`
    Or = 0x16,
    /// `rd = rs1 ^ rs2`
    Xor = 0x17,
    /// `rd = rs1 << (rs2 & 63)`
    Shl = 0x18,
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic)
    Shr = 0x19,
    /// `rd = !rs1` (bitwise)
    Not = 0x1A,
    /// `rd = rs1 + imm`
    Addi = 0x1B,
    /// `rd = rs1 * imm`
    Muli = 0x1C,
    /// `rd = (rs1 == rs2) as i64`
    Cmpeq = 0x20,
    /// `rd = (rs1 != rs2) as i64`
    Cmpne = 0x21,
    /// `rd = (rs1 < rs2) as i64` (signed)
    Cmplt = 0x22,
    /// `rd = (rs1 <= rs2) as i64` (signed)
    Cmple = 0x23,
    /// `rd = mem[rs1 + imm]`
    Ld = 0x30,
    /// `mem[rs1 + imm] = rs2`
    St = 0x31,
    /// `pc = imm` (absolute)
    Jmp = 0x40,
    /// `if rs1 == 0 { pc = imm }` — the canonical *branch-false* of an `if`.
    Beqz = 0x41,
    /// `if rs1 != 0 { pc = imm }`
    Bnez = 0x42,
    /// Push `pc + 1`; `pc = imm` (direct call to a function entry).
    Call = 0x43,
    /// Pop return address into `pc`.
    Ret = 0x44,
    /// `mem[--sp] = rs1`
    Push = 0x50,
    /// `rd = mem[sp++]`
    Pop = 0x51,
    /// Hypercall `imm` — the device layer below the OS (not a fault target).
    Hcall = 0x60,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 31] = [
        Opcode::Nop,
        Opcode::Halt,
        Opcode::Mov,
        Opcode::Ldi,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Mod,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Not,
        Opcode::Addi,
        Opcode::Muli,
        Opcode::Cmpeq,
        Opcode::Cmpne,
        Opcode::Cmplt,
        Opcode::Cmple,
        Opcode::Ld,
        Opcode::St,
        Opcode::Jmp,
        Opcode::Beqz,
        Opcode::Bnez,
        Opcode::Call,
        Opcode::Ret,
        Opcode::Push,
        Opcode::Pop,
        Opcode::Hcall,
    ];

    fn from_u8(b: u8) -> Result<Opcode, DecodeError> {
        Opcode::ALL
            .iter()
            .copied()
            .find(|op| *op as u8 == b)
            .ok_or(DecodeError::BadOpcode(b))
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::Halt => "halt",
            Opcode::Mov => "mov",
            Opcode::Ldi => "ldi",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Mod => "mod",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Not => "not",
            Opcode::Addi => "addi",
            Opcode::Muli => "muli",
            Opcode::Cmpeq => "cmpeq",
            Opcode::Cmpne => "cmpne",
            Opcode::Cmplt => "cmplt",
            Opcode::Cmple => "cmple",
            Opcode::Ld => "ld",
            Opcode::St => "st",
            Opcode::Jmp => "jmp",
            Opcode::Beqz => "beqz",
            Opcode::Bnez => "bnez",
            Opcode::Call => "call",
            Opcode::Ret => "ret",
            Opcode::Push => "push",
            Opcode::Pop => "pop",
            Opcode::Hcall => "hcall",
        }
    }

    /// True for three-register ALU forms (`rd, rs1, rs2`).
    pub fn is_alu3(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::Div
                | Opcode::Mod
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::Shr
                | Opcode::Cmpeq
                | Opcode::Cmpne
                | Opcode::Cmplt
                | Opcode::Cmple
        )
    }

    /// True for instructions that may transfer control.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Opcode::Jmp | Opcode::Beqz | Opcode::Bnez | Opcode::Call | Opcode::Ret | Opcode::Halt
        )
    }
}

/// A decoded instruction.
///
/// Fields not used by an opcode must be zero ([`Reg::ZERO`] / `0`); both the
/// encoder and the decoder enforce this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register (or store *source*, see [`Instr::store`]).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate operand.
    pub imm: i32,
}

/// Errors produced when decoding an instruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Register field out of range.
    BadRegister(u8),
    /// A field that must be zero for this opcode was set.
    NonZeroUnusedField(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            DecodeError::BadRegister(r) => write!(f, "register index {r} out of range"),
            DecodeError::NonZeroUnusedField(op) => {
                write!(f, "nonzero unused field for opcode {op:#04x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Instr {
    /// The canonical no-op word, used by "missing construct" mutations.
    pub const NOP: Instr = Instr {
        op: Opcode::Nop,
        rd: Reg(0),
        rs1: Reg(0),
        rs2: Reg(0),
        imm: 0,
    };

    fn raw(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg, imm: i32) -> Instr {
        Instr {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    /// `nop`
    pub fn nop() -> Instr {
        Instr::NOP
    }
    /// `halt`
    pub fn halt() -> Instr {
        Instr::raw(Opcode::Halt, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
    }
    /// `rd = rs1`
    pub fn mov(rd: Reg, rs1: Reg) -> Instr {
        Instr::raw(Opcode::Mov, rd, rs1, Reg::ZERO, 0)
    }
    /// `rd = imm`
    pub fn ldi(rd: Reg, imm: i32) -> Instr {
        Instr::raw(Opcode::Ldi, rd, Reg::ZERO, Reg::ZERO, imm)
    }
    /// Three-register ALU op.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an ALU-3 opcode.
    pub fn alu3(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
        assert!(op.is_alu3(), "{op:?} is not a 3-register ALU opcode");
        Instr::raw(op, rd, rs1, rs2, 0)
    }
    /// `rd = !rs1`
    pub fn not(rd: Reg, rs1: Reg) -> Instr {
        Instr::raw(Opcode::Not, rd, rs1, Reg::ZERO, 0)
    }
    /// `rd = rs1 + imm`
    pub fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::raw(Opcode::Addi, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = rs1 * imm`
    pub fn muli(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::raw(Opcode::Muli, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = mem[base + off]`
    pub fn ld(rd: Reg, base: Reg, off: i32) -> Instr {
        Instr::raw(Opcode::Ld, rd, base, Reg::ZERO, off)
    }
    /// `mem[base + off] = src` (note: `src` travels in the `rs2` field).
    pub fn store(base: Reg, off: i32, src: Reg) -> Instr {
        Instr::raw(Opcode::St, Reg::ZERO, base, src, off)
    }
    /// `pc = target`
    pub fn jmp(target: u32) -> Instr {
        Instr::raw(Opcode::Jmp, Reg::ZERO, Reg::ZERO, Reg::ZERO, target as i32)
    }
    /// `if rs1 == 0 { pc = target }`
    pub fn beqz(rs1: Reg, target: u32) -> Instr {
        Instr::raw(Opcode::Beqz, Reg::ZERO, rs1, Reg::ZERO, target as i32)
    }
    /// `if rs1 != 0 { pc = target }`
    pub fn bnez(rs1: Reg, target: u32) -> Instr {
        Instr::raw(Opcode::Bnez, Reg::ZERO, rs1, Reg::ZERO, target as i32)
    }
    /// Direct call to absolute address `target`.
    pub fn call(target: u32) -> Instr {
        Instr::raw(Opcode::Call, Reg::ZERO, Reg::ZERO, Reg::ZERO, target as i32)
    }
    /// Return from call.
    pub fn ret() -> Instr {
        Instr::raw(Opcode::Ret, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
    }
    /// Push `rs1`.
    pub fn push(rs1: Reg) -> Instr {
        Instr::raw(Opcode::Push, Reg::ZERO, rs1, Reg::ZERO, 0)
    }
    /// Pop into `rd`.
    pub fn pop(rd: Reg) -> Instr {
        Instr::raw(Opcode::Pop, rd, Reg::ZERO, Reg::ZERO, 0)
    }
    /// Hypercall number `n`.
    pub fn hcall(n: i32) -> Instr {
        Instr::raw(Opcode::Hcall, Reg::ZERO, Reg::ZERO, Reg::ZERO, n)
    }

    /// The branch/jump/call target, if this instruction has one.
    pub fn target(self) -> Option<u32> {
        match self.op {
            Opcode::Jmp | Opcode::Beqz | Opcode::Bnez | Opcode::Call => Some(self.imm as u32),
            _ => None,
        }
    }

    /// Rewrites the control-flow target.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no target.
    pub fn with_target(mut self, target: u32) -> Instr {
        assert!(self.target().is_some(), "{:?} has no target", self.op);
        self.imm = target as i32;
        self
    }

    /// Registers read by this instruction (up to 2, plus stores read `rs2`).
    pub fn reads(self) -> Vec<Reg> {
        match self.op {
            Opcode::Nop | Opcode::Halt | Opcode::Ldi | Opcode::Jmp | Opcode::Call | Opcode::Ret => {
                vec![]
            }
            Opcode::Mov | Opcode::Not | Opcode::Addi | Opcode::Muli | Opcode::Ld => vec![self.rs1],
            Opcode::Beqz | Opcode::Bnez | Opcode::Push => vec![self.rs1],
            Opcode::St => vec![self.rs1, self.rs2],
            Opcode::Pop => vec![],
            Opcode::Hcall => vec![],
            _ => vec![self.rs1, self.rs2], // ALU-3
        }
    }

    /// Register written by this instruction, if any.
    pub fn writes(self) -> Option<Reg> {
        match self.op {
            Opcode::Mov
            | Opcode::Ldi
            | Opcode::Not
            | Opcode::Addi
            | Opcode::Muli
            | Opcode::Ld
            | Opcode::Pop => Some(self.rd),
            op if op.is_alu3() => Some(self.rd),
            _ => None,
        }
    }

    /// Encodes to the 64-bit word format.
    pub fn encode(self) -> u64 {
        ((self.op as u64) << 56)
            | ((self.rd.0 as u64) << 48)
            | ((self.rs1.0 as u64) << 40)
            | ((self.rs2.0 as u64) << 32)
            | (self.imm as u32 as u64)
    }

    /// Decodes a 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for unknown opcodes, out-of-range register
    /// fields, or nonzero fields that the opcode does not use.
    pub fn decode(word: u64) -> Result<Instr, DecodeError> {
        let op = Opcode::from_u8((word >> 56) as u8)?;
        let rd = Reg::new((word >> 48) as u8)?;
        let rs1 = Reg::new((word >> 40) as u8)?;
        let rs2 = Reg::new((word >> 32) as u8)?;
        let imm = word as u32 as i32;
        let instr = Instr {
            op,
            rd,
            rs1,
            rs2,
            imm,
        };
        instr.validate()?;
        Ok(instr)
    }

    /// Checks the "unused fields are zero" invariant.
    fn validate(self) -> Result<(), DecodeError> {
        let err = Err(DecodeError::NonZeroUnusedField(self.op as u8));
        let zero = |r: Reg| r == Reg::ZERO;
        match self.op {
            Opcode::Nop | Opcode::Halt | Opcode::Ret
                if (!zero(self.rd) || !zero(self.rs1) || !zero(self.rs2) || self.imm != 0) =>
            {
                return err;
            }
            Opcode::Mov | Opcode::Not if (!zero(self.rs2) || self.imm != 0) => {
                return err;
            }
            Opcode::Ldi if (!zero(self.rs1) || !zero(self.rs2)) => {
                return err;
            }
            Opcode::Addi | Opcode::Muli | Opcode::Ld if !zero(self.rs2) => {
                return err;
            }
            Opcode::St if !zero(self.rd) => {
                return err;
            }
            Opcode::Jmp | Opcode::Call | Opcode::Hcall
                if (!zero(self.rd) || !zero(self.rs1) || !zero(self.rs2)) =>
            {
                return err;
            }
            Opcode::Beqz | Opcode::Bnez if (!zero(self.rd) || !zero(self.rs2)) => {
                return err;
            }
            Opcode::Push if (!zero(self.rd) || !zero(self.rs2) || self.imm != 0) => {
                return err;
            }
            Opcode::Pop if (!zero(self.rs1) || !zero(self.rs2) || self.imm != 0) => {
                return err;
            }
            op if op.is_alu3() && self.imm != 0 => {
                return err;
            }
            _ => {}
        }
        Ok(())
    }
}

impl fmt::Display for Instr {
    /// Disassembly, e.g. `st [fp-3], r10` or `beqz r10, 42`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        match self.op {
            Opcode::Nop | Opcode::Halt | Opcode::Ret => write!(f, "{m}"),
            Opcode::Mov | Opcode::Not => write!(f, "{m} {}, {}", self.rd, self.rs1),
            Opcode::Ldi => write!(f, "{m} {}, {}", self.rd, self.imm),
            Opcode::Addi | Opcode::Muli => {
                write!(f, "{m} {}, {}, {}", self.rd, self.rs1, self.imm)
            }
            Opcode::Ld => write!(f, "{m} {}, [{}{:+}]", self.rd, self.rs1, self.imm),
            Opcode::St => write!(f, "{m} [{}{:+}], {}", self.rs1, self.imm, self.rs2),
            Opcode::Jmp | Opcode::Call => write!(f, "{m} {}", self.imm as u32),
            Opcode::Beqz | Opcode::Bnez => write!(f, "{m} {}, {}", self.rs1, self.imm as u32),
            Opcode::Push => write!(f, "{m} {}", self.rs1),
            Opcode::Pop => write!(f, "{m} {}", self.rd),
            Opcode::Hcall => write!(f, "{m} {}", self.imm),
            _ => write!(f, "{m} {}, {}, {}", self.rd, self.rs1, self.rs2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip_basics() {
        let cases = [
            Instr::nop(),
            Instr::halt(),
            Instr::mov(Reg::RV, Reg::A0),
            Instr::ldi(Reg::T0, -7),
            Instr::alu3(Opcode::Add, Reg::RV, Reg::A0, Reg::A7),
            Instr::addi(Reg::SP, Reg::SP, -4),
            Instr::ld(Reg::T0, Reg::FP, -3),
            Instr::store(Reg::FP, -3, Reg::T0),
            Instr::jmp(1234),
            Instr::beqz(Reg::T0, 99),
            Instr::bnez(Reg::T0, 100),
            Instr::call(7),
            Instr::ret(),
            Instr::push(Reg::FP),
            Instr::pop(Reg::FP),
            Instr::hcall(3),
        ];
        for i in cases {
            assert_eq!(Instr::decode(i.encode()), Ok(i), "{i}");
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        assert_eq!(Instr::decode(0xFF << 56), Err(DecodeError::BadOpcode(0xFF)));
    }

    #[test]
    fn decode_rejects_bad_register() {
        // ADD with rd = 40
        let word = ((Opcode::Add as u64) << 56) | (40u64 << 48);
        assert!(matches!(
            Instr::decode(word),
            Err(DecodeError::BadRegister(40))
        ));
    }

    #[test]
    fn decode_rejects_nonzero_unused_fields() {
        // NOP with imm = 1
        let word = (Opcode::Nop as u64) << 56 | 1;
        assert!(matches!(
            Instr::decode(word),
            Err(DecodeError::NonZeroUnusedField(_))
        ));
    }

    #[test]
    fn negative_immediates_survive_roundtrip() {
        let i = Instr::ldi(Reg::T0, i32::MIN);
        assert_eq!(Instr::decode(i.encode()), Ok(i));
        let j = Instr::addi(Reg::T0, Reg::T0, -1);
        assert_eq!(Instr::decode(j.encode()), Ok(j));
    }

    #[test]
    fn target_accessors() {
        let b = Instr::beqz(Reg::T0, 55);
        assert_eq!(b.target(), Some(55));
        assert_eq!(b.with_target(77).target(), Some(77));
        assert_eq!(Instr::nop().target(), None);
    }

    #[test]
    #[should_panic(expected = "has no target")]
    fn with_target_panics_on_non_branch() {
        let _ = Instr::nop().with_target(3);
    }

    #[test]
    fn reads_and_writes_are_consistent() {
        let st = Instr::store(Reg::FP, -1, Reg::T0);
        assert_eq!(st.reads(), vec![Reg::FP, Reg::T0]);
        assert_eq!(st.writes(), None);

        let add = Instr::alu3(Opcode::Add, Reg::RV, Reg::A0, Reg::A0);
        assert_eq!(add.writes(), Some(Reg::RV));
        assert_eq!(add.reads(), vec![Reg::A0, Reg::A0]);

        let ldi = Instr::ldi(Reg::T0, 5);
        assert!(ldi.reads().is_empty());
        assert_eq!(ldi.writes(), Some(Reg::T0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Instr::nop().to_string(), "nop");
        assert_eq!(Instr::ldi(Reg::T0, -3).to_string(), "ldi r10, -3");
        assert_eq!(
            Instr::store(Reg::FP, -3, Reg::T0).to_string(),
            "st [fp-3], r10"
        );
        assert_eq!(Instr::ld(Reg::T0, Reg::SP, 2).to_string(), "ld r10, [sp+2]");
        assert_eq!(Instr::beqz(Reg::T0, 9).to_string(), "beqz r10, 9");
    }

    #[test]
    fn abi_register_constants() {
        assert_eq!(Reg::arg(0), Reg::A0);
        assert_eq!(Reg::arg(7), Reg::A7);
        assert!(Reg::arg(3).is_arg());
        assert!(!Reg::SP.is_arg());
    }

    #[test]
    #[should_panic(expected = "argument registers")]
    fn arg_register_bound() {
        let _ = Reg::arg(8);
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        let reg = (0u8..32).prop_map(|i| Reg::new(i).unwrap());
        let alu_ops = proptest::sample::select(vec![
            Opcode::Add,
            Opcode::Sub,
            Opcode::Mul,
            Opcode::Div,
            Opcode::Mod,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Shl,
            Opcode::Shr,
            Opcode::Cmpeq,
            Opcode::Cmpne,
            Opcode::Cmplt,
            Opcode::Cmple,
        ]);
        prop_oneof![
            Just(Instr::nop()),
            Just(Instr::halt()),
            Just(Instr::ret()),
            (reg.clone(), reg.clone()).prop_map(|(a, b)| Instr::mov(a, b)),
            (reg.clone(), any::<i32>()).prop_map(|(a, i)| Instr::ldi(a, i)),
            (alu_ops, reg.clone(), reg.clone(), reg.clone())
                .prop_map(|(op, a, b, c)| Instr::alu3(op, a, b, c)),
            (reg.clone(), reg.clone(), any::<i32>()).prop_map(|(a, b, i)| Instr::addi(a, b, i)),
            (reg.clone(), reg.clone(), any::<i32>()).prop_map(|(a, b, i)| Instr::ld(a, b, i)),
            (reg.clone(), any::<i32>(), reg.clone()).prop_map(|(b, i, s)| Instr::store(b, i, s)),
            any::<u32>().prop_map(Instr::jmp),
            (reg.clone(), any::<u32>()).prop_map(|(r, t)| Instr::beqz(r, t)),
            (reg.clone(), any::<u32>()).prop_map(|(r, t)| Instr::bnez(r, t)),
            any::<u32>().prop_map(Instr::call),
            reg.clone().prop_map(Instr::push),
            reg.prop_map(Instr::pop),
            any::<i32>().prop_map(Instr::hcall),
        ]
    }

    proptest! {
        /// The encoding is bijective over constructor-valid instructions.
        #[test]
        fn prop_encode_decode_roundtrip(i in arb_instr()) {
            prop_assert_eq!(Instr::decode(i.encode()), Ok(i));
        }

        /// Decoding either fails or re-encodes to the identical word —
        /// i.e. there are no two words decoding to the same instruction.
        #[test]
        fn prop_decode_encode_is_identity(word: u64) {
            if let Ok(i) = Instr::decode(word) {
                prop_assert_eq!(i.encode(), word);
            }
        }
    }
}
