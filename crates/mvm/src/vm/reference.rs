//! The step-by-step dispatch loop the run-level loop replaced, kept as the
//! reference it is checked against: it compares the budget, counts the
//! step and books the profile and watchpoint on every instruction, and
//! reaches memory through [`Memory::read`] and [`Memory::write`].

use super::{CallOutcome, HcallHandler, Trap, Watchpoint, RETURN_SENTINEL};
use crate::image::CodeImage;
use crate::isa::{Opcode, Reg};
use crate::mem::Memory;

/// [`super::exec`], one instruction at a time.
#[allow(clippy::too_many_arguments)]
pub(super) fn exec<H: HcallHandler>(
    image: &CodeImage,
    mem: &mut Memory,
    hcalls: &mut H,
    budget: u64,
    stack_limit: i64,
    entry: u32,
    regs: &mut [i64; 32],
    mut counts: Option<&mut [u64]>,
    mut watch: Option<&mut Watchpoint>,
) -> (u64, Result<CallOutcome, Trap>) {
    let ops = image.ops();
    let mut pc: u32 = entry;
    let mut executed: u64 = 0;
    let outcome = loop {
        if executed >= budget {
            break Err(Trap::BudgetExhausted { executed });
        }
        executed += 1;
        let slot = match ops.get(pc as usize) {
            Some(s) => s,
            None => break Err(Trap::BadInstruction { at: pc }),
        };
        if let Some(c) = counts.as_deref_mut() {
            c[pc as usize] += 1;
        }
        if let Some(w) = watch.as_deref_mut() {
            if w.pc == pc {
                w.hits += 1;
            }
        }
        let instr = match slot {
            Ok(i) => *i,
            Err(_) => break Err(Trap::BadInstruction { at: pc }),
        };

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
                if t < 0 || t as usize >= image.len() {
                    break Err(Trap::BadJump { at: pc, target: t });
                }
                pc = t as u32;
                continue;
            }};
        }

        match instr.op {
            Opcode::Nop => {}
            Opcode::Halt => {
                break Ok(CallOutcome {
                    return_value: regs[Reg::RV.index()],
                    executed,
                })
            }
            Opcode::Mov => set!(instr.rd, reg!(instr.rs1)),
            Opcode::Ldi => set!(instr.rd, instr.imm as i64),
            Opcode::Add => set!(instr.rd, reg!(instr.rs1).wrapping_add(reg!(instr.rs2))),
            Opcode::Sub => set!(instr.rd, reg!(instr.rs1).wrapping_sub(reg!(instr.rs2))),
            Opcode::Mul => set!(instr.rd, reg!(instr.rs1).wrapping_mul(reg!(instr.rs2))),
            Opcode::Div => {
                let d = reg!(instr.rs2);
                if d == 0 {
                    break Err(Trap::DivideByZero { at: pc });
                }
                set!(instr.rd, reg!(instr.rs1).wrapping_div(d));
            }
            Opcode::Mod => {
                let d = reg!(instr.rs2);
                if d == 0 {
                    break Err(Trap::DivideByZero { at: pc });
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
                match mem.read(addr) {
                    Ok(v) => set!(instr.rd, v),
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr }),
                }
            }
            Opcode::St => {
                let addr = reg!(instr.rs1).wrapping_add(instr.imm as i64);
                if mem.write(addr, reg!(instr.rs2)).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr });
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
                if sp < stack_limit {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                if mem.write(sp, pc as i64 + 1).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
                jump_to!(instr.imm as u32 as i64);
            }
            Opcode::Ret => {
                let sp = regs[Reg::SP.index()];
                let ra = match mem.read(sp) {
                    Ok(v) => v,
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr: sp }),
                };
                regs[Reg::SP.index()] = sp + 1;
                if ra == RETURN_SENTINEL {
                    break Ok(CallOutcome {
                        return_value: regs[Reg::RV.index()],
                        executed,
                    });
                }
                jump_to!(ra);
            }
            Opcode::Push => {
                let sp = regs[Reg::SP.index()] - 1;
                if sp < stack_limit || mem.write(sp, reg!(instr.rs1)).is_err() {
                    break Err(Trap::BadMemory { at: pc, addr: sp });
                }
                regs[Reg::SP.index()] = sp;
            }
            Opcode::Pop => {
                let sp = regs[Reg::SP.index()];
                match mem.read(sp) {
                    Ok(v) => {
                        set!(instr.rd, v);
                        regs[Reg::SP.index()] = sp + 1;
                    }
                    Err(_) => break Err(Trap::BadMemory { at: pc, addr: sp }),
                }
            }
            Opcode::Hcall => {
                if let Err(t) = hcalls.hcall(instr.imm, pc, regs, mem) {
                    break Err(t);
                }
                regs[Reg::ZERO.index()] = 0;
            }
        }
        pc += 1;
    };
    (executed, outcome)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    use super::super::exec;
    use super::*;
    use crate::image::{FuncInfo, Patch};
    use crate::isa::Instr;
    use crate::mem::PAGE_CELLS;

    /// Three pages of data memory, the top `STACK` cells of it stack.
    const CELLS: usize = 3 * PAGE_CELLS;
    const STACK: i64 = 64;
    /// A budget far above any image's longest run.
    const FAR: u64 = 5_000;

    /// A device whose hypercalls read and write registers and memory, and
    /// which logs every call, so both loops must call it identically.
    #[derive(Default)]
    struct Device {
        log: Vec<(i32, u32)>,
    }

    impl HcallHandler for Device {
        fn hcall(
            &mut self,
            n: i32,
            at: u32,
            regs: &mut [i64; 32],
            mem: &mut Memory,
        ) -> Result<(), Trap> {
            self.log.push((n, at));
            match n {
                0 => regs[Reg::RV.index()] = regs[2].wrapping_add(regs[3]),
                1 => mem
                    .write(regs[2], regs[3])
                    .map_err(|_| Trap::BadHcall { at, n })?,
                2 => regs[Reg::ZERO.index()] = 7,
                _ => return Err(Trap::BadHcall { at, n }),
            }
            Ok(())
        }
    }

    /// Everything a call leaves behind.
    #[derive(Debug, PartialEq)]
    struct After {
        executed: u64,
        outcome: Result<CallOutcome, Trap>,
        regs: [i64; 32],
        cells: Vec<i64>,
        cells_restored: usize,
        hcalls: Vec<(i32, u32)>,
        profile: Option<Vec<u64>>,
        watch: Option<Watchpoint>,
    }

    /// One call, through the run-level loop or the reference.
    struct Case<'a> {
        image: &'a CodeImage,
        mem: &'a Memory,
        snap: &'a crate::mem::MemorySnapshot,
        entry: u32,
        args: &'a [i64],
    }

    impl Case<'_> {
        fn run(&self, run_level: bool, budget: u64, profile: bool, watch: Option<u32>) -> After {
            let mut mem = self.mem.clone();
            let mut regs = [0i64; 32];
            regs[2..2 + self.args.len()].copy_from_slice(self.args);
            let top = mem.len() as i64;
            mem.write(top - 1, RETURN_SENTINEL).unwrap();
            regs[Reg::SP.index()] = top - 1;
            let mut counts = profile.then(|| vec![0; self.image.len()]);
            let mut watch = watch.map(|pc| Watchpoint { pc, hits: 0 });
            let mut device = Device::default();
            let exec = if run_level { exec } else { super::exec };
            let (executed, outcome) = exec(
                self.image,
                &mut mem,
                &mut device,
                budget,
                top - STACK,
                self.entry,
                &mut regs,
                counts.as_deref_mut(),
                watch.as_mut(),
            );
            let cells = mem.read_slice(0, CELLS).unwrap().to_vec();
            After {
                executed,
                outcome,
                regs,
                cells,
                cells_restored: mem.restore(self.snap),
                hcalls: device.log,
                profile: counts,
                watch,
            }
        }
    }

    /// A random call: a linked image of 2–40 words, some overwritten by
    /// undecodable ones, its entry (sometimes past the end) and arguments.
    #[derive(Debug)]
    struct Program {
        image: CodeImage,
        entry: u32,
        args: Vec<i64>,
    }

    struct Programs;

    impl Strategy for Programs {
        type Value = Program;

        fn sample(&self, rng: &mut TestRng) -> Program {
            let len = 2 + rng.below(39) as u32;
            let instrs: Vec<Instr> = (0..len).map(|_| instr(rng, len)).collect();
            let funcs = vec![FuncInfo {
                name: "main".into(),
                entry: 0,
                end: len,
            }];
            let mut image = CodeImage::link("prop", &instrs, funcs).unwrap();
            for _ in 0..rng.below(4) {
                let addr = rng.below(u64::from(len)) as u32;
                // Opcode bytes 0x7F..=0xFF name no instruction.
                let new_word = (0x7F + rng.below(0x81)) << 56;
                image.apply(&[Patch { addr, new_word }]).unwrap();
            }
            let entry = if rng.below(8) == 0 {
                len + rng.below(2) as u32
            } else {
                rng.below(u64::from(len)) as u32
            };
            let args = (0..rng.below(9)).map(|_| value(rng)).collect();
            Program { image, entry, args }
        }
    }

    /// Small numbers and data addresses in and out of memory.
    fn value(rng: &mut TestRng) -> i64 {
        if rng.below(2) == 0 {
            rng.below(12) as i64 - 4
        } else {
            rng.below(CELLS as u64 + 8) as i64
        }
    }

    /// An instruction over a few registers (the stack pointer only as a
    /// source), with transfer targets mostly inside an image of `len`
    /// words and sometimes past its end: loops, calls, stores, loads, wild
    /// jumps and wild returns all occur.
    fn instr(rng: &mut TestRng, len: u32) -> Instr {
        const ALU: [Opcode; 14] = [
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
        ];
        let mut reg = || Reg::new(rng.below(6) as u8).unwrap();
        let (d, a, b) = (reg(), reg(), reg());
        let src = if rng.below(5) == 0 { Reg::SP } else { a };
        let target = if rng.below(7) == 0 {
            len + rng.below(3) as u32
        } else {
            rng.below(u64::from(len)) as u32
        };
        let small = rng.below(7) as i32 - 3;
        let imm = value(rng) as i32;
        match rng.below(40) {
            0..=3 => Instr::alu3(ALU[rng.below(14) as usize], d, src, b),
            4 => Instr::mov(d, src),
            5 => Instr::not(d, src),
            6..=8 => Instr::addi(d, src, small),
            9 => Instr::muli(d, src, small),
            10..=12 => Instr::ldi(d, imm),
            13..=15 => Instr::ld(d, src, imm),
            16..=18 => Instr::store(src, imm, b),
            19..=20 => Instr::jmp(target),
            21..=22 => Instr::beqz(a, target),
            23..=25 => Instr::bnez(a, target),
            26..=27 => Instr::call(target),
            28..=29 => Instr::ret(),
            30..=31 => Instr::push(src),
            32..=33 => Instr::pop(d),
            34..=35 => Instr::hcall(rng.below(4) as i32),
            36 => Instr::halt(),
            _ => Instr::nop(),
        }
    }

    /// Every budget from zero to past the step count, on calls whose runs
    /// are the longest possible, the image plus the fetch past its end (a
    /// straight line from the entry; a countdown loop whose last run,
    /// after a taken branch, falls off the end), and one word (a spin
    /// loop).
    #[test]
    fn every_budget_around_the_step_count_matches_the_step_loop() {
        let straight: Vec<Instr> = (1..6).map(|i| Instr::ldi(Reg::RV, i)).collect();
        let countdown = [Instr::addi(Reg::A0, Reg::A0, -1), Instr::bnez(Reg::A0, 0)];
        for instrs in [&straight[..], &[Instr::jmp(0)], &countdown] {
            let funcs = vec![FuncInfo {
                name: "main".into(),
                entry: 0,
                end: instrs.len() as u32,
            }];
            let image = CodeImage::link("sweep", instrs, funcs).unwrap();
            let mem = Memory::new(CELLS);
            let snap = mem.snapshot();
            let case = Case {
                image: &image,
                mem: &mem,
                snap: &snap,
                entry: 0,
                args: &[4],
            };
            for budget in 0..40 {
                for (profile, watch) in [(false, None), (true, Some(1))] {
                    assert_eq!(
                        case.run(true, budget, profile, watch),
                        case.run(false, budget, profile, watch),
                        "budget {budget} on {instrs:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run-level loop and the step-by-step reference leave the same
        /// outcome, step count, registers, memory, dirty pages, hypercalls,
        /// profile and watch hits, with and without instrumentation, at a
        /// budget far above the call's step count and at one within a run's
        /// length of it.
        #[test]
        fn prop_run_level_loop_matches_the_step_loop(
            program in Programs,
            seed: i64,
            near in -1.0f64..1.0,
            watched_pc in 0u32..48,
        ) {
            let mut mem = Memory::new(CELLS);
            let low: Vec<i64> = (0..PAGE_CELLS as i64).map(|i| (seed ^ i) % 97).collect();
            mem.write_block(0, &low).unwrap();
            let snap = mem.snapshot();
            mem.restore(&snap);
            let Program { image, entry, args } = program;
            let case = Case { image: &image, mem: &mem, snap: &snap, entry, args: &args };

            let steps = case.run(false, FAR, false, None).executed;
            let longest_run = image.len() as f64 + 2.0;
            let budget = (steps as f64 + near * longest_run).max(0.0) as u64;
            for budget in [FAR, budget] {
                for profile in [false, true] {
                    for watch in [None, Some(watched_pc % (image.len() as u32 + 2))] {
                        let reference = case.run(false, budget, profile, watch);
                        let run_level = case.run(true, budget, profile, watch);
                        prop_assert_eq!(run_level, reference, "budget {}", budget);
                    }
                }
            }
        }
    }
}
