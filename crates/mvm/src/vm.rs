//! The trapping interpreter.
//!
//! The VM executes one [`CodeImage`] function call at a time against a shared
//! [`Memory`]. Everything abnormal becomes a [`Trap`] rather than unwinding
//! into the host: division by zero, wild loads/stores, jumps outside the
//! image, undecodable (corrupted) instruction words, and — crucially for
//! fault injection — exhaustion of the instruction *budget*, which is how an
//! injected fault that produces an infinite loop manifests as a detectable
//! hang instead of wedging the benchmark harness.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::image::{CodeImage, DecodedOp};
use crate::isa::{Opcode, Reg};
use crate::mem::Memory;

/// Abnormal termination of a VM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trap {
    /// Signed division or remainder with a zero divisor.
    DivideByZero {
        /// Faulting instruction address.
        at: u32,
    },
    /// Load or store outside data memory.
    BadMemory {
        /// Faulting instruction address.
        at: u32,
        /// The wild data address.
        addr: i64,
    },
    /// Control transfer outside the code image (includes corrupted return
    /// addresses popped by `ret`).
    BadJump {
        /// Faulting instruction address.
        at: u32,
        /// The wild code address.
        target: i64,
    },
    /// The word at `at` no longer decodes (possible after aggressive
    /// patching).
    BadInstruction {
        /// Faulting instruction address.
        at: u32,
    },
    /// The instruction budget ran out — the call is considered hung.
    BudgetExhausted {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// A hypercall was invoked with an unknown number or invalid arguments.
    BadHcall {
        /// Faulting instruction address.
        at: u32,
        /// Hypercall number.
        n: i32,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivideByZero { at } => write!(f, "divide by zero at {at}"),
            Trap::BadMemory { at, addr } => write!(f, "bad memory access at {at} (addr {addr})"),
            Trap::BadJump { at, target } => write!(f, "bad jump at {at} (target {target})"),
            Trap::BadInstruction { at } => write!(f, "undecodable instruction at {at}"),
            Trap::BudgetExhausted { executed } => {
                write!(f, "instruction budget exhausted after {executed}")
            }
            Trap::BadHcall { at, n } => write!(f, "bad hypercall {n} at {at}"),
        }
    }
}

impl std::error::Error for Trap {}

impl Trap {
    /// True if the trap models a *hang* (as opposed to a crash) — the
    /// distinction the benchmark harness uses to separate KNS/KCP from MIS.
    pub fn is_hang(self) -> bool {
        matches!(self, Trap::BudgetExhausted { .. })
    }
}

/// Device layer invoked by the `hcall` instruction.
///
/// Hypercalls sit *below* the OS under test — they model raw hardware
/// (backing store, console) and are never a fault-injection target.
/// Arguments arrive in `r2..`, the result must be placed in `r1`.
pub trait HcallHandler {
    /// Handles hypercall `n`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] (usually [`Trap::BadHcall`]) for unknown numbers or
    /// invalid arguments.
    fn hcall(
        &mut self,
        n: i32,
        at: u32,
        regs: &mut [i64; 32],
        mem: &mut Memory,
    ) -> Result<(), Trap>;
}

/// A handler that rejects every hypercall — for pure computational code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHcalls;

impl HcallHandler for NoHcalls {
    fn hcall(
        &mut self,
        n: i32,
        at: u32,
        _regs: &mut [i64; 32],
        _mem: &mut Memory,
    ) -> Result<(), Trap> {
        Err(Trap::BadHcall { at, n })
    }
}

/// Interpreter configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VmConfig {
    /// Maximum instructions per call before [`Trap::BudgetExhausted`].
    pub budget: u64,
    /// Cells reserved for the call stack at the top of data memory.
    pub stack_cells: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            budget: 2_000_000,
            stack_cells: 4096,
        }
    }
}

/// Successful completion of a VM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Value left in `r1` by the callee.
    pub return_value: i64,
    /// Instructions executed — the basis of the simulated cost model.
    pub executed: u64,
}

/// Sentinel return address marking the bottom of the call stack.
const RETURN_SENTINEL: i64 = -0x5EAF00D;

/// A single-address execution watchpoint.
///
/// Campaigns arm one on a fault's key instruction to measure *activation*
/// (did the mutated code actually run?). The dispatch loop books it once
/// per straight-line run, as it books the per-address counts of
/// [`enable_profiling`](Vm::enable_profiling): a run whose addresses
/// include the watched pc is one hit. That is one range compare per run,
/// cheap enough to leave armed for a whole campaign slot, where the
/// profile is priced for offline studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchpoint {
    /// The watched code address.
    pub pc: u32,
    /// Times the watched address has executed since arming.
    pub hits: u64,
}

/// The interpreter. Stateless between calls except for configuration and
/// cumulative instruction counts.
#[derive(Clone, Debug)]
pub struct Vm {
    config: VmConfig,
    total_executed: u64,
    profile: Option<Vec<u64>>,
    watch: Option<Watchpoint>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates a VM with [`VmConfig::default`].
    pub fn new() -> Vm {
        Vm::with_config(VmConfig::default())
    }

    /// Creates a VM with an explicit configuration.
    pub fn with_config(config: VmConfig) -> Vm {
        Vm {
            config,
            total_executed: 0,
            profile: None,
            watch: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> VmConfig {
        self.config
    }

    /// Instructions executed across all calls (for intrusiveness accounting).
    pub fn total_executed(&self) -> u64 {
        self.total_executed
    }

    /// Enables per-address execution counting for an image of `code_len`
    /// instructions. Counting adds each straight-line run's addresses when
    /// the run ends; it is meant for offline cost-attribution studies, not
    /// campaigns.
    pub fn enable_profiling(&mut self, code_len: usize) {
        self.profile = Some(vec![0; code_len]);
    }

    /// Per-address execution counts recorded since
    /// [`enable_profiling`](Vm::enable_profiling); `None` when disabled.
    pub fn profile(&self) -> Option<&[u64]> {
        self.profile.as_deref()
    }

    /// Arms an execution watchpoint on `pc`, resetting its hit count. Only
    /// one watchpoint exists at a time (a campaign slot carries one fault).
    pub fn set_watchpoint(&mut self, pc: u32) {
        self.watch = Some(Watchpoint { pc, hits: 0 });
    }

    /// Disarms the watchpoint, returning its final state if one was armed.
    pub fn clear_watchpoint(&mut self) -> Option<Watchpoint> {
        self.watch.take()
    }

    /// The armed watchpoint and its hit count, if any.
    pub fn watchpoint(&self) -> Option<Watchpoint> {
        self.watch
    }

    /// Calls `func` with `args` (at most 8) in `image` against `mem`.
    ///
    /// The stack occupies the top `stack_cells` of `mem`; everything below is
    /// the callee's to manage (the OS keeps its heap there).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any abnormal event, or a boxed image error if
    /// `func` is not linked in `image`.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are supplied or memory is smaller than
    /// the configured stack.
    pub fn call<H: HcallHandler>(
        &mut self,
        image: &CodeImage,
        mem: &mut Memory,
        hcalls: &mut H,
        func: &str,
        args: &[i64],
    ) -> Result<CallOutcome, CallError> {
        let entry = image
            .func(func)
            .ok_or_else(|| CallError::UnknownFunction(func.to_string()))?
            .entry;
        self.call_entry(image, mem, hcalls, entry, args)
    }

    /// [`Vm::call`] with the entry address already resolved (a
    /// [`crate::FuncInfo::entry`]). Callers that dispatch the same functions
    /// repeatedly resolve the symbol once and skip the per-call name lookup;
    /// function entries never move — patches replace words in place — so a
    /// resolved entry stays valid for the image's lifetime.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any abnormal event (including an out-of-range
    /// `entry`, which traps as [`Trap::BadInstruction`] on the first fetch).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are supplied or memory is smaller than
    /// the configured stack.
    pub fn call_entry<H: HcallHandler>(
        &mut self,
        image: &CodeImage,
        mem: &mut Memory,
        hcalls: &mut H,
        entry: u32,
        args: &[i64],
    ) -> Result<CallOutcome, CallError> {
        assert!(args.len() <= 8, "ABI passes at most 8 register arguments");
        assert!(
            mem.len() >= self.config.stack_cells,
            "memory ({}) smaller than configured stack ({})",
            mem.len(),
            self.config.stack_cells
        );

        // Arguments go straight into `r2..=r9`, the unused ones zero: a
        // fixed eight-register copy, with no call into the library.
        let mut regs = [0i64; 32];
        for (i, r) in regs[Reg::A0.index()..=Reg::A7.index()]
            .iter_mut()
            .enumerate()
        {
            *r = args.get(i).copied().unwrap_or(0);
        }
        let stack_top = mem.len() as i64;
        let stack_limit = stack_top - self.config.stack_cells as i64;
        let mut sp = stack_top;
        // Bottom-of-stack sentinel: `ret` to it ends the call.
        sp -= 1;
        mem.write(sp, RETURN_SENTINEL).expect("stack in bounds");
        regs[Reg::SP.index()] = sp;

        // A mis-sized profile would silently truncate per-address counts;
        // refuse loudly instead (activation/cost data must be trustworthy).
        if let Some(counts) = self.profile.as_ref() {
            assert_eq!(
                counts.len(),
                image.len(),
                "profile sized for a different image: {} count slots vs {} instructions in `{}`",
                counts.len(),
                image.len(),
                image.name()
            );
        }

        let (executed, outcome) = exec(
            image,
            mem,
            hcalls,
            self.config.budget,
            stack_limit,
            entry,
            &mut regs,
            self.profile.as_deref_mut(),
            self.watch.as_mut(),
        );
        self.total_executed += executed;
        outcome.map_err(CallError::Trap)
    }
}

/// The instrumentation a call books once per straight-line run: the
/// per-address profile and the watchpoint, each present only when armed.
struct Tally<'a> {
    counts: Option<&'a mut [u64]>,
    watch: Option<&'a mut Watchpoint>,
    /// First address of the run in progress; kept only while armed.
    first: u32,
}

impl Tally<'_> {
    fn is_armed(&self) -> bool {
        self.counts.is_some() || self.watch.is_some()
    }

    /// Books the run in progress: every address from its first to `end`
    /// (exclusive) executed once. The run's start is stored here, so the
    /// dispatch loop holds none of the tally in its registers.
    #[inline]
    fn end_run(&mut self, end: u32) {
        let first = self.first;
        if let Some(counts) = self.counts.as_deref_mut() {
            count_run(counts, first, end);
        }
        if let Some(w) = self.watch.as_deref_mut() {
            if (first..end).contains(&w.pc) {
                w.hits += 1;
            }
        }
    }
}

/// Adds one to the profile count of every address in `first..end`. A call
/// entered past the image's end books an empty run that starts there.
#[inline(never)]
fn count_run(counts: &mut [u64], first: u32, end: u32) {
    if let Some(span) = counts.get_mut(first as usize..end as usize) {
        for n in span {
            *n += 1;
        }
    }
}

/// Executes one call from `entry` and returns the executed-step count
/// alongside the outcome, so the caller can tally intrusiveness.
///
/// The bookkeeping (step count, budget, profile, watchpoint) is done once
/// per straight-line *run*, not once per instruction. A run starts at the
/// entry, at a jump, branch, call or return target and after an hcall; it
/// ends at the next taken transfer, hcall, trap or halt. Within a run the
/// pc only steps forward, so a run is at most the whole image plus the
/// fetch past its end: `image.len() + 1` steps. A run that starts with at
/// least that much budget left cannot exhaust it, so the budget is
/// compared only at run starts until fewer steps remain; the rest of the
/// call then runs in the same loop with a per-step budget check, which
/// reports exactly the count the step-by-step loop would.
#[allow(clippy::too_many_arguments)]
fn exec<H: HcallHandler>(
    image: &CodeImage,
    mem: &mut Memory,
    hcalls: &mut H,
    budget: u64,
    stack_limit: i64,
    entry: u32,
    regs: &mut [i64; 32],
    counts: Option<&mut [u64]>,
    watch: Option<&mut Watchpoint>,
) -> (u64, Result<CallOutcome, Trap>) {
    let ops = image.ops();
    let mut at = RunStart {
        pc: entry,
        executed: 0,
    };
    let tally = &mut Tally {
        counts,
        watch,
        first: entry,
    };
    let longest_run = ops.len() as u64 + 1;
    let outcome = match budget.checked_sub(longest_run).and_then(|last_start| {
        runs::<H, false>(
            ops,
            mem,
            hcalls,
            stack_limit,
            last_start,
            regs,
            &mut at,
            tally,
        )
    }) {
        Some(outcome) => outcome,
        None => runs::<H, true>(ops, mem, hcalls, stack_limit, budget, regs, &mut at, tally)
            .expect("the budget-checked loop runs to the end of the call"),
    };
    (at.executed, outcome)
}

/// Where a run starts: its pc and the steps executed before it.
struct RunStart {
    pc: u32,
    executed: u64,
}

/// The dispatch loop, executing straight from the image's pre-decoded cache:
/// fetching a slot is an index, not a decode (patches re-decode only the
/// words they touch).
///
/// Without `CHECK_EACH_STEP`, `limit` is the last executed count at which a
/// run may start: a run that would start later returns `None` with `at` set
/// to it, for the checked loop to resume. With it, `limit` is the budget,
/// compared before every step. Either way `at.executed` holds the final
/// count when the call ends. The memory's cells stay borrowed from one
/// hcall to the next.
#[allow(clippy::too_many_arguments)]
fn runs<H: HcallHandler, const CHECK_EACH_STEP: bool>(
    ops: &[DecodedOp],
    mem: &mut Memory,
    hcalls: &mut H,
    stack_limit: i64,
    limit: u64,
    regs: &mut [i64; 32],
    at: &mut RunStart,
    tally: &mut Tally<'_>,
) -> Option<Result<CallOutcome, Trap>> {
    let armed = tally.is_armed();
    // A run boundary whose executed count reaches `gate` takes the slow
    // path: booking the tally, and (unchecked) handing over near the
    // budget. Armed, every boundary does.
    let gate = match (armed, CHECK_EACH_STEP) {
        (true, _) => 0,
        (false, false) => limit + 1,
        (false, true) => u64::MAX,
    };
    let mut pc = at.pc;
    // `base + pc` is the count of steps executed before the step at `pc`,
    // so stepping forward inside a run updates no count.
    let mut base = at.executed.wrapping_sub(u64::from(pc));
    let mut cells = mem.cells_mut();

    // Ends the call: the steps through `pc` (exclusive) plus `$extra`
    // count, and the run in progress is booked up to `$end`.
    macro_rules! finish {
        ($end:expr, $extra:expr) => {{
            at.executed = base.wrapping_add(u64::from(pc) + $extra);
            if armed {
                tally.end_run($end);
            }
        }};
    }
    // The instruction at `pc` traps: it is the call's last step.
    macro_rules! trap {
        ($t:expr) => {{
            finish!(pc + 1, 1);
            break Err($t);
        }};
    }
    // The instruction at `pc` hands control to `$t`, which starts a run.
    macro_rules! start_run {
        ($t:expr) => {{
            let t: u32 = $t;
            let executed = base.wrapping_add(u64::from(pc) + 1);
            if executed >= gate {
                if armed {
                    tally.end_run(pc + 1);
                    tally.first = t;
                }
                if !CHECK_EACH_STEP && executed > limit {
                    *at = RunStart { pc: t, executed };
                    return None;
                }
            }
            pc = t;
            base = executed.wrapping_sub(u64::from(t));
            continue;
        }};
    }
    macro_rules! reg {
        ($r:expr) => {
            regs[$r.index()]
        };
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {{
            let r = $r;
            if r != Reg::ZERO {
                regs[r.index()] = $v;
            }
        }};
    }
    macro_rules! jump_to {
        ($t:expr) => {{
            let t = $t;
            if t < 0 || t as usize >= ops.len() {
                trap!(Trap::BadJump { at: pc, target: t });
            }
            start_run!(t as u32);
        }};
    }

    let outcome = loop {
        if CHECK_EACH_STEP && base.wrapping_add(u64::from(pc)) >= limit {
            finish!(pc, 0);
            break Err(Trap::BudgetExhausted {
                executed: at.executed,
            });
        }
        // The trapping step counts: every trap arm below reports the
        // instruction (or bad word) that was reached, uniformly. The fetch
        // past the image's end is a step but not an address.
        let instr = match ops.get(pc as usize) {
            Some(Ok(i)) => *i,
            Some(Err(_)) => trap!(Trap::BadInstruction { at: pc }),
            None => {
                finish!(pc, 1);
                break Err(Trap::BadInstruction { at: pc });
            }
        };

        match instr.op {
            Opcode::Nop => {}
            Opcode::Halt => {
                finish!(pc + 1, 1);
                break Ok(CallOutcome {
                    return_value: regs[Reg::RV.index()],
                    executed: at.executed,
                });
            }
            Opcode::Mov => set!(instr.rd, reg!(instr.rs1)),
            Opcode::Ldi => set!(instr.rd, instr.imm as i64),
            Opcode::Add => set!(instr.rd, reg!(instr.rs1).wrapping_add(reg!(instr.rs2))),
            Opcode::Sub => set!(instr.rd, reg!(instr.rs1).wrapping_sub(reg!(instr.rs2))),
            Opcode::Mul => set!(instr.rd, reg!(instr.rs1).wrapping_mul(reg!(instr.rs2))),
            Opcode::Div => {
                let d = reg!(instr.rs2);
                if d == 0 {
                    trap!(Trap::DivideByZero { at: pc });
                }
                set!(instr.rd, reg!(instr.rs1).wrapping_div(d));
            }
            Opcode::Mod => {
                let d = reg!(instr.rs2);
                if d == 0 {
                    trap!(Trap::DivideByZero { at: pc });
                }
                set!(instr.rd, reg!(instr.rs1).wrapping_rem(d));
            }
            Opcode::And => set!(instr.rd, reg!(instr.rs1) & reg!(instr.rs2)),
            Opcode::Or => set!(instr.rd, reg!(instr.rs1) | reg!(instr.rs2)),
            Opcode::Xor => set!(instr.rd, reg!(instr.rs1) ^ reg!(instr.rs2)),
            Opcode::Shl => set!(instr.rd, reg!(instr.rs1) << (reg!(instr.rs2) & 63)),
            Opcode::Shr => set!(instr.rd, reg!(instr.rs1) >> (reg!(instr.rs2) & 63)),
            Opcode::Not => set!(instr.rd, !reg!(instr.rs1)),
            Opcode::Addi => set!(instr.rd, reg!(instr.rs1).wrapping_add(instr.imm as i64)),
            Opcode::Muli => set!(instr.rd, reg!(instr.rs1).wrapping_mul(instr.imm as i64)),
            Opcode::Cmpeq => set!(instr.rd, (reg!(instr.rs1) == reg!(instr.rs2)) as i64),
            Opcode::Cmpne => set!(instr.rd, (reg!(instr.rs1) != reg!(instr.rs2)) as i64),
            Opcode::Cmplt => set!(instr.rd, (reg!(instr.rs1) < reg!(instr.rs2)) as i64),
            Opcode::Cmple => set!(instr.rd, (reg!(instr.rs1) <= reg!(instr.rs2)) as i64),
            Opcode::Ld => {
                let addr = reg!(instr.rs1).wrapping_add(instr.imm as i64);
                match cells.read(addr) {
                    Some(v) => set!(instr.rd, v),
                    None => trap!(Trap::BadMemory { at: pc, addr }),
                }
            }
            Opcode::St => {
                let addr = reg!(instr.rs1).wrapping_add(instr.imm as i64);
                if !cells.write(addr, reg!(instr.rs2)) {
                    trap!(Trap::BadMemory { at: pc, addr });
                }
            }
            Opcode::Jmp => jump_to!(instr.imm as u32 as i64),
            Opcode::Beqz => {
                if reg!(instr.rs1) == 0 {
                    jump_to!(instr.imm as u32 as i64);
                }
            }
            Opcode::Bnez => {
                if reg!(instr.rs1) != 0 {
                    jump_to!(instr.imm as u32 as i64);
                }
            }
            Opcode::Call => {
                let sp = regs[Reg::SP.index()] - 1;
                if sp < stack_limit || !cells.write(sp, pc as i64 + 1) {
                    trap!(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
                jump_to!(instr.imm as u32 as i64);
            }
            Opcode::Ret => {
                let sp = regs[Reg::SP.index()];
                let Some(ra) = cells.read(sp) else {
                    trap!(Trap::BadMemory { at: pc, addr: sp });
                };
                regs[Reg::SP.index()] = sp + 1;
                if ra == RETURN_SENTINEL {
                    finish!(pc + 1, 1);
                    break Ok(CallOutcome {
                        return_value: regs[Reg::RV.index()],
                        executed: at.executed,
                    });
                }
                jump_to!(ra);
            }
            Opcode::Push => {
                let sp = regs[Reg::SP.index()] - 1;
                if sp < stack_limit || !cells.write(sp, reg!(instr.rs1)) {
                    trap!(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
            }
            Opcode::Pop => {
                let sp = regs[Reg::SP.index()];
                match cells.read(sp) {
                    Some(v) => {
                        set!(instr.rd, v);
                        regs[Reg::SP.index()] = sp + 1;
                    }
                    None => trap!(Trap::BadMemory { at: pc, addr: sp }),
                }
            }
            Opcode::Hcall => {
                // The handler reaches memory through `Memory` itself, so the
                // cells are borrowed again after it; the next step starts a
                // run.
                if let Err(t) = hcalls.hcall(instr.imm, pc, regs, mem) {
                    trap!(t);
                }
                cells = mem.cells_mut();
                regs[Reg::ZERO.index()] = 0; // keep r0 hard-zero across handlers
                start_run!(pc + 1);
            }
        }
        pc += 1;
    };
    Some(outcome)
}

/// Errors from [`Vm::call`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallError {
    /// The function is not linked in the image.
    UnknownFunction(String),
    /// The callee trapped.
    Trap(Trap),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            CallError::Trap(t) => write!(f, "trap: {t}"),
        }
    }
}

impl std::error::Error for CallError {}

impl CallError {
    /// The trap, if this error is one.
    pub fn trap(&self) -> Option<Trap> {
        match self {
            CallError::Trap(t) => Some(*t),
            CallError::UnknownFunction(_) => None,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str, func: &str, args: &[i64]) -> Result<CallOutcome, CallError> {
        let image = assemble(src).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.call(&image, &mut mem, &mut NoHcalls, func, args)
    }

    #[test]
    fn arithmetic_and_return() {
        let out = run(
            r#"
            .func main
                add r1, r2, r3
                ret
            "#,
            "main",
            &[20, 22],
        )
        .unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(out.executed, 2);
    }

    #[test]
    fn nested_calls_preserve_flow() {
        let out = run(
            r#"
            .func main
                ldi r2, 5
                call inc
                mov r2, r1
                call inc
                ret
            .func inc
                addi r1, r2, 1
                ret
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 7);
    }

    #[test]
    fn branches_take_and_fall_through() {
        let src = r#"
            .func sign
                beqz r2, zero
                cmplt r10, r2, r0
                bnez r10, neg
                ldi r1, 1
                ret
            zero:
                ldi r1, 0
                ret
            neg:
                ldi r1, -1
                ret
        "#;
        assert_eq!(run(src, "sign", &[15]).unwrap().return_value, 1);
        assert_eq!(run(src, "sign", &[0]).unwrap().return_value, 0);
        assert_eq!(run(src, "sign", &[-3]).unwrap().return_value, -1);
    }

    #[test]
    fn loop_with_memory() {
        // Sum cells [a0, a0+n) into r1.
        let src = r#"
            .func sum
                ldi r1, 0
                mov r10, r2
                add r11, r2, r3
            loop:
                cmplt r12, r10, r11
                beqz r12, done
                ld r13, [r10+0]
                add r1, r1, r13
                addi r10, r10, 1
                jmp loop
            done:
                ret
        "#;
        let image = assemble(src).unwrap();
        let mut mem = Memory::new(8192);
        for i in 0..10 {
            mem.write(100 + i, i + 1).unwrap();
        }
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "sum", &[100, 10])
            .unwrap();
        assert_eq!(out.return_value, 55);
    }

    #[test]
    fn divide_by_zero_traps() {
        let err = run(
            r#"
            .func main
                div r1, r2, r3
                ret
            "#,
            "main",
            &[1, 0],
        )
        .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::DivideByZero { at: 0 }));
    }

    #[test]
    fn wild_memory_traps() {
        let err = run(
            r#"
            .func main
                ldi r10, -500
                ld r1, [r10+0]
                ret
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert!(matches!(
            err.trap(),
            Some(Trap::BadMemory { at: 1, addr: -500 })
        ));
    }

    #[test]
    fn wild_jump_traps() {
        let err = run(
            r#"
            .func main
                jmp 999999
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err.trap(), Some(Trap::BadJump { .. })));
    }

    #[test]
    fn infinite_loop_exhausts_budget() {
        let image = assemble(
            r#"
            .func spin
            again:
                jmp again
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::with_config(VmConfig {
            budget: 1000,
            stack_cells: 128,
        });
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "spin", &[])
            .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::BudgetExhausted { executed: 1000 }));
        assert!(err.trap().unwrap().is_hang());
    }

    /// A budget far above the image's length starts with run-level checks
    /// and must switch to per-step checks in time to stop at exactly the
    /// budget.
    #[test]
    fn spin_loop_stops_at_exactly_a_large_budget() {
        let image = assemble(
            r#"
            .func spin
            again:
                jmp again
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::with_config(VmConfig {
            budget: 100_000,
            stack_cells: 128,
        });
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "spin", &[])
            .unwrap_err();
        assert_eq!(
            err.trap(),
            Some(Trap::BudgetExhausted { executed: 100_000 })
        );
        assert_eq!(vm.total_executed(), 100_000);
    }

    #[test]
    fn stack_overflow_on_runaway_recursion() {
        let err = run(
            r#"
            .func main
                call main
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        // Either the stack limit or the budget fires; with default config the
        // stack limit comes first.
        assert!(matches!(err.trap(), Some(Trap::BadMemory { .. })));
    }

    #[test]
    fn r0_is_hard_zero() {
        let out = run(
            r#"
            .func main
                ldi r0, 77
                mov r1, r0
                ret
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 0);
    }

    #[test]
    fn unknown_function_reported() {
        let err = run(
            r#"
            .func main
                ret
            "#,
            "nope",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, CallError::UnknownFunction(_)));
    }

    #[test]
    fn unknown_hcall_traps() {
        let err = run(
            r#"
            .func main
                hcall 42
                ret
            "#,
            "main",
            &[],
        )
        .unwrap_err();
        assert_eq!(err.trap(), Some(Trap::BadHcall { at: 0, n: 42 }));
    }

    #[test]
    fn push_pop_roundtrip_and_total_executed() {
        let image = assemble(
            r#"
            .func main
                ldi r10, 9
                push r10
                ldi r10, 0
                pop r1
                ret
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap();
        assert_eq!(out.return_value, 9);
        assert_eq!(vm.total_executed(), out.executed);
    }

    #[test]
    fn halt_ends_call_with_rv() {
        let out = run(
            r#"
            .func main
                ldi r1, 5
                halt
            "#,
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(out.return_value, 5);
    }

    /// A custom hcall handler is invoked with register access.
    #[test]
    fn hcall_handler_runs() {
        struct Doubler;
        impl HcallHandler for Doubler {
            fn hcall(
                &mut self,
                n: i32,
                at: u32,
                regs: &mut [i64; 32],
                _mem: &mut Memory,
            ) -> Result<(), Trap> {
                if n == 1 {
                    regs[Reg::RV.index()] = regs[Reg::A0.index()] * 2;
                    Ok(())
                } else {
                    Err(Trap::BadHcall { at, n })
                }
            }
        }
        let image = assemble(
            r#"
            .func main
                hcall 1
                ret
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let out = vm
            .call(&image, &mut mem, &mut Doubler, "main", &[21])
            .unwrap();
        assert_eq!(out.return_value, 42);
    }

    /// Counts down from `r2` in a loop whose body sits at a known address —
    /// the watchpoint fixture.
    const COUNTDOWN: &str = r#"
        .func main
            ldi r3, 1
        loop:
            sub r2, r2, r3
            beqz r2, done
            jmp loop
        done:
            ret
    "#;

    #[test]
    fn watchpoint_counts_each_execution_of_the_watched_pc() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Address 1 is the `sub`: executed once per loop iteration.
        vm.set_watchpoint(1);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[5])
            .unwrap();
        assert_eq!(vm.watchpoint(), Some(Watchpoint { pc: 1, hits: 5 }));
        // Hits accumulate across calls until re-armed or cleared.
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[3])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 8);
        let fin = vm.clear_watchpoint().unwrap();
        assert_eq!(fin.hits, 8);
        assert_eq!(vm.watchpoint(), None);
    }

    #[test]
    fn rearming_a_watchpoint_resets_its_count() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.set_watchpoint(1);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[4])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 4);
        vm.set_watchpoint(1);
        assert_eq!(vm.watchpoint().unwrap().hits, 0);
    }

    #[test]
    fn unexecuted_watchpoint_stays_at_zero() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Watch an address well past the function — it never executes.
        vm.set_watchpoint(1000);
        vm.call(&image, &mut mem, &mut NoHcalls, "main", &[5])
            .unwrap();
        assert_eq!(vm.watchpoint().unwrap().hits, 0);
    }

    #[test]
    fn profile_counts_every_executed_address() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.enable_profiling(image.len());
        let out = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[3])
            .unwrap();
        let counts = vm.profile().unwrap();
        assert_eq!(counts.len(), image.len());
        assert_eq!(counts[1], 3, "`sub` runs once per iteration");
        assert_eq!(
            counts.iter().sum::<u64>(),
            out.executed,
            "no executed step may escape the profile"
        );
    }

    #[test]
    #[should_panic(expected = "profile sized for a different image")]
    fn mis_sized_profile_is_a_loud_error() {
        let image = assemble(COUNTDOWN).expect("assembles");
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        // Sized for some other image: counts would silently truncate before.
        vm.enable_profiling(2);
        let _ = vm.call(&image, &mut mem, &mut NoHcalls, "main", &[3]);
    }

    #[test]
    fn bad_instruction_counts_the_trapping_step() {
        use crate::image::Patch;
        let mut image = assemble(
            r#"
            .func main
                ldi r1, 5
                ret
            "#,
        )
        .unwrap();
        // Corrupt the `ret` into an undecodable word, as an injector could.
        image
            .apply(&[Patch {
                addr: 1,
                new_word: 0xFF << 56,
            }])
            .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        vm.set_watchpoint(1);
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap_err();
        assert_eq!(err, CallError::Trap(Trap::BadInstruction { at: 1 }));
        // The trapping step counts, uniformly with every other trap arm:
        // `ldi` executed, then reaching the bad word is step two.
        assert_eq!(vm.total_executed(), 2);
        // Reaching the corrupted site is an activation, and is observed.
        assert_eq!(vm.watchpoint().unwrap().hits, 1);
    }

    #[test]
    fn falling_off_the_image_end_counts_the_trapping_step() {
        let image = assemble(
            r#"
            .func main
                nop
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(8192);
        let mut vm = Vm::new();
        let err = vm
            .call(&image, &mut mem, &mut NoHcalls, "main", &[])
            .unwrap_err();
        assert_eq!(err, CallError::Trap(Trap::BadInstruction { at: 1 }));
        assert_eq!(vm.total_executed(), 2, "nop plus the out-of-range fetch");
    }
}
