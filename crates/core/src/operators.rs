//! The mutation-operator layer: the operator contract and the shared pattern
//! analyses.
//!
//! Paper §2.2: *"Each operator describes one specific type of fault […] and
//! comprises two components: a search pattern and a low-level mutation
//! definition."* Since the operators-as-data redesign the operator
//! *definitions* live in fault-model packs (see [`crate::pack`]); this
//! module keeps what is code by nature:
//!
//! - the [`MutationOperator`] contract and [`Mutation`] output type,
//! - the code-shape analyses (`if_sites`, `literal_assignments`, … —
//!   crate-private) that pack patterns parameterize.
//!
//! The classic 12 operators of Table 1 are the bundled `odc-classic` pack
//! ([`crate::pack::classic`]).
//!
//! Operators are deliberately conservative: when a pattern is ambiguous
//! (non-contiguous evaluation slice, jumps into a candidate region, missing
//! canonical prologue) they refuse to match — a missed location only shrinks
//! the faultload, while a bad mutation would break the "the mutation must
//! correspond to code the compiler could have generated" premise.

use mvm::{Instr, Opcode, Patch, Reg};

use crate::funcview::FuncView;
use crate::taxonomy::FaultType;

/// Maximum `if`-body size (instructions) for MIFS/MIA matches; bodies larger
/// than this are "not a small localized construct" and are skipped. This is
/// the default for the `if-construct` pattern's `max-body` parameter.
pub const MAX_IF_BODY: usize = 24;

/// Default MLPC window length (instructions) — the `straight-run` pattern's
/// `window` parameter.
pub const MLPC_WINDOW: usize = 3;
/// Default minimum straight-line run length to host an MLPC window — the
/// `straight-run` pattern's `min-run` parameter.
pub const MLPC_MIN_RUN: usize = 6;

/// One candidate mutation produced by an operator scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutation {
    /// Absolute address of the key instruction of the pattern.
    pub site: u32,
    /// Code-word overwrites emulating the fault.
    pub patches: Vec<Patch>,
    /// What the mutation does, for reports.
    pub note: String,
}

/// A search pattern plus low-level mutation for one fault type.
pub trait MutationOperator {
    /// The emulated fault type.
    fn fault_type(&self) -> FaultType;
    /// Stable operator id: the prefix of every fault id this operator
    /// generates (`<id>@func+off`). Defaults to the fault-type acronym,
    /// which is what the classic operators use; pack operators carry their
    /// declared id.
    fn id(&self) -> &str {
        self.fault_type().acronym()
    }
    /// Scans one function and returns every location where the fault can be
    /// emulated.
    fn scan(&self, func: &FuncView) -> Vec<Mutation>;
}

// --------------------------------------------------------------------------
// shared pattern analyses (parameterized by pack patterns)
// --------------------------------------------------------------------------

pub(crate) fn nop_range(func: &FuncView, start: usize, end: usize) -> Vec<Patch> {
    (start..end)
        .map(|i| Patch {
            addr: func.abs(i),
            new_word: Instr::nop().encode(),
        })
        .collect()
}

pub(crate) fn is_temp(r: Reg) -> bool {
    (Reg::T0.index()..Reg::T0.index() + 16).contains(&r.index())
}

/// A recognized `if (cond) { body }` shape (no `else`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct IfSite {
    /// Relative index of the first condition-evaluation instruction.
    pub(crate) cond_start: usize,
    /// Relative index of the `beqz`.
    pub(crate) branch: usize,
    /// Relative index one past the body (the branch target).
    pub(crate) end: usize,
}

/// Resolves a branch target to a relative body-end index (the target may be
/// exactly one past the function end).
fn target_rel(func: &FuncView, instr: &Instr) -> Option<usize> {
    let t = instr.target()?;
    func.rel(t)
        .or((t == func.entry + func.len() as u32).then_some(func.len()))
}

/// Finds every `if`-without-`else` pattern: `eval cond; beqz over body`,
/// where the body is at most `max_body` instructions, ends without a `jmp`
/// (which would indicate an `else` arm or a loop back-edge), and nothing
/// jumps into its middle.
///
/// `&&` chains — several `beqz` to the same false-target, each guarding the
/// next clause — are folded into **one** site whose guard region runs from
/// the first clause's evaluation through the *last* branch; the trailing
/// clauses are the `and-chain-clause` pattern's territory, not extra
/// if-sites.
pub(crate) fn if_sites(func: &FuncView, max_body: usize) -> Vec<IfSite> {
    let mut sites = Vec::new();
    let mut consumed = vec![false; func.len()];
    let beqz: Vec<usize> = func
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| i.op == Opcode::Beqz)
        .map(|(i, _)| i)
        .collect();
    for &i in &beqz {
        if consumed[i] {
            continue;
        }
        let Some(end) = target_rel(func, &func.instrs[i]) else {
            continue;
        };
        // Extend through the && chain: same target, contiguous clause evals.
        let mut last = i;
        loop {
            let next = beqz.iter().copied().find(|&k| {
                k > last
                    && k < end
                    && target_rel(func, &func.instrs[k]) == Some(end)
                    && func.branch_cond_reg(k).and_then(|r| func.eval_slice(r, k)) == Some(last + 1)
                    && func.is_straight_line(last + 1, k)
            });
            match next {
                Some(k) => {
                    consumed[k] = true;
                    last = k;
                }
                None => break,
            }
        }
        if end <= last + 1 || end - (last + 1) > max_body {
            continue;
        }
        // Body must not end with a jump (else-arm or loop shape).
        if func.instrs[end - 1].op == Opcode::Jmp {
            continue;
        }
        // No branch from outside the construct may land inside the body.
        let jumped_into = func.instrs.iter().enumerate().any(|(j, other)| {
            if (i..end).contains(&j) || other.op == Opcode::Call {
                return false;
            }
            target_rel(func, other).is_some_and(|t| t > last && t < end)
        });
        if jumped_into {
            continue;
        }
        let Some(cond_start) = func.branch_cond_reg(i).and_then(|r| func.eval_slice(r, i)) else {
            continue;
        };
        sites.push(IfSite {
            cond_start,
            branch: last,
            end,
        });
    }
    sites
}

/// Finds trailing `&&` clauses: pairs of adjacent `beqz` branches to the
/// same false-target where the region between them is exactly the second
/// clause's evaluation. Returns `(first_branch, second_branch)` pairs; the
/// removable clause is `(first_branch + 1 ..= second_branch)`.
pub(crate) fn and_chain_clauses(func: &FuncView) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let branches: Vec<usize> = func
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| i.op == Opcode::Beqz)
        .map(|(i, _)| i)
        .collect();
    for w in branches.windows(2) {
        let (b1, b2) = (w[0], w[1]);
        if func.instrs[b1].target() != func.instrs[b2].target() {
            continue;
        }
        let Some(reg) = func.branch_cond_reg(b2) else {
            continue;
        };
        match func.eval_slice(reg, b2) {
            Some(s) if s == b1 + 1 && func.is_straight_line(s, b2) => {}
            _ => continue,
        }
        out.push((b1, b2));
    }
    out
}

/// Finds `window`-length gaps centred in straight-line runs of at least
/// `min_run` instructions; returns the relative start index of each window.
/// Runs break at control flow, stack discipline (`push`/`pop`/`hcall`/SP
/// writes) and branch targets.
pub(crate) fn straight_runs(func: &FuncView, window: usize, min_run: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut run_start = func.after_prologue();
    let mut i = run_start;
    let mut flush = |start: usize, end: usize| {
        if end - start >= min_run {
            out.push(start + (end - start - window) / 2);
        }
    };
    while i < func.len() {
        let instr = func.instrs[i];
        let breaks = instr.op.is_control()
            || matches!(instr.op, Opcode::Push | Opcode::Pop | Opcode::Hcall)
            || instr.writes() == Some(Reg::SP)
            || (i > run_start && func.is_branch_target(func.abs(i)));
        if breaks {
            flush(run_start, i);
            run_start = i + 1;
        }
        i += 1;
    }
    flush(run_start, func.len());
    out
}

/// `ldi rT, imm; st [fp-k], rT` / `st [r0+addr], rT` pairs (literal
/// assignment); returns `(ldi_idx, store_idx)` pairs.
pub(crate) fn literal_assignments(func: &FuncView) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..func.len().saturating_sub(1) {
        let a = func.instrs[i];
        let b = func.instrs[i + 1];
        let pair = a.op == Opcode::Ldi
            && is_temp(a.rd)
            && b.op == Opcode::St
            && b.rs2 == a.rd
            && (b.rs1 == Reg::FP || b.rs1 == Reg::ZERO)
            && !func.is_branch_target(func.abs(i + 1));
        if pair {
            out.push((i, i + 1));
        }
    }
    out
}

/// Relative end (exclusive) of the declaration region: everything from the
/// end of the prologue up to the first control-flow instruction or branch
/// target.
pub(crate) fn decl_region_end(func: &FuncView) -> usize {
    let start = func.after_prologue();
    let mut i = start;
    while i < func.len() {
        if func.instrs[i].op.is_control() || func.is_branch_target(func.abs(i)) {
            break;
        }
        i += 1;
    }
    i
}

/// Walks forward from a `call` to decide whether its return value (`r1`) is
/// consumed. A `jmp`/`ret`/function-end counts as "used" (conservative); an
/// overwrite of `r1` (including another call) confirms "unused".
/// Conditional branches and join points are scanned through on the
/// fall-through path — in the canonical statement layout of the target
/// compiler a consumed result is copied out of `r1` immediately, so the
/// fall-through path is decisive.
pub(crate) fn call_result_unused(func: &FuncView, call_idx: usize) -> bool {
    let mut j = call_idx + 1;
    while j < func.len() {
        let instr = func.instrs[j];
        match instr.op {
            Opcode::Ret => return false, // r1 is the return value
            Opcode::Jmp => return false,
            Opcode::Call | Opcode::Hcall => return true, // r1 clobbered
            Opcode::Beqz | Opcode::Bnez => {
                // reads only its condition register; continue fall-through
                if instr.rs1 == Reg::RV {
                    return false;
                }
            }
            _ => {
                if instr.reads().contains(&Reg::RV) {
                    return false;
                }
                if instr.writes() == Some(Reg::RV) {
                    return true;
                }
            }
        }
        j += 1;
    }
    false
}

/// The contiguous run of `mov rArg, rTmp` marshalling instructions directly
/// before a call; returns `(first_marshal_idx, moves)` where each move is
/// `(idx, arg_reg, src_reg)`.
pub(crate) fn arg_marshal(func: &FuncView, call_idx: usize) -> (usize, Vec<(usize, Reg, Reg)>) {
    let mut moves = Vec::new();
    let mut j = call_idx;
    while j > 0 {
        let instr = func.instrs[j - 1];
        if instr.op == Opcode::Mov && instr.rd.is_arg() && is_temp(instr.rs1) {
            moves.push((j - 1, instr.rd, instr.rs1));
            j -= 1;
        } else {
            break;
        }
    }
    moves.reverse();
    (j, moves)
}

/// Finds the defining instruction of `reg` scanning backwards from `before`
/// within a straight-line region.
pub(crate) fn def_of(func: &FuncView, reg: Reg, before: usize) -> Option<usize> {
    let mut j = before;
    while j > 0 {
        let idx = j - 1;
        let instr = func.instrs[idx];
        if instr.op.is_control() {
            return None;
        }
        if instr.writes() == Some(reg) {
            return Some(idx);
        }
        if func.is_branch_target(func.abs(idx)) {
            return None;
        }
        j = idx;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{classic_op, CompiledOperator};
    use crate::taxonomy::FaultType;
    use minic::compile;

    fn views(src: &str) -> Vec<FuncView> {
        let p = compile("t", src).unwrap();
        FuncView::all_of(p.image())
    }

    /// Scans `func` of `src` with the classic operator `id`.
    fn scan_one(id: &str, src: &str, func: &str) -> Vec<Mutation> {
        let vs = views(src);
        let v = vs.iter().find(|v| v.name == func).unwrap();
        classic_op(id).scan(v)
    }

    const IF_SRC: &str = r#"
        fn f(a, b) {
            var r = 0;
            if (a > b) { r = 1; }
            return r;
        }
    "#;

    #[test]
    fn mifs_finds_and_removes_whole_if() {
        let ms = scan_one("MIFS", IF_SRC, "f");
        assert_eq!(ms.len(), 1);
        // cond eval (ld,ld,cmplt) + beqz + body (ldi,st) = 6 nops
        assert_eq!(ms[0].patches.len(), 6);
        assert!(ms[0]
            .patches
            .iter()
            .all(|p| p.new_word == Instr::nop().encode()));
    }

    #[test]
    fn mia_removes_only_the_guard() {
        let ms = scan_one("MIA", IF_SRC, "f");
        assert_eq!(ms.len(), 1);
        // cond eval (3) + branch (1)
        assert_eq!(ms[0].patches.len(), 4);
    }

    #[test]
    fn if_else_is_not_an_mifs_site() {
        let src = r#"
            fn f(a) {
                var r = 0;
                if (a) { r = 1; } else { r = 2; }
                return r;
            }
        "#;
        // The then-arm ends in `jmp`, so neither arm may match.
        assert!(scan_one("MIFS", src, "f").is_empty());
    }

    #[test]
    fn while_loop_is_not_an_mifs_site() {
        let src = r#"
            fn f(n) {
                var i = 0;
                while (i < n) { i = i + 1; }
                return i;
            }
        "#;
        assert!(scan_one("MIFS", src, "f").is_empty());
    }

    #[test]
    fn mlac_finds_and_clause() {
        let src = r#"
            fn f(a, b, c) {
                if (a > 0 && b > 0 && c > 0) { return 1; }
                return 0;
            }
        "#;
        let ms = scan_one("MLAC", src, "f");
        assert_eq!(ms.len(), 2); // two trailing clauses
    }

    #[test]
    fn mlac_requires_shared_target() {
        // `a || b` compiles to bnez/beqz with different targets — no match.
        let src = "fn f(a, b) { if (a || b) { return 1; } return 0; }";
        assert!(scan_one("MLAC", src, "f").is_empty());
    }

    #[test]
    fn mfc_matches_only_unused_results() {
        let src = r#"
            fn g(x) { return x; }
            fn f(a) {
                g(a);
                var r = g(a);
                return r;
            }
        "#;
        let ms = scan_one("MFC", src, "f");
        assert_eq!(ms.len(), 1);
        // The statement call is the first call in the function.
        let vs = views(src);
        let v = vs.iter().find(|v| v.name == "f").unwrap();
        let first_call = v.instrs.iter().position(|i| i.op == Opcode::Call).unwrap();
        assert_eq!(ms[0].site, v.abs(first_call));
    }

    #[test]
    fn mvi_matches_decl_region_only() {
        let src = r#"
            fn f(a) {
                var x = 5;
                var y = 6;
                if (a) { x = 7; }
                return x + y;
            }
        "#;
        let mvi = scan_one("MVI", src, "f");
        assert_eq!(mvi.len(), 2); // the two initializations
        let mvav = scan_one("MVAV", src, "f");
        assert_eq!(mvav.len(), 1); // the x = 7 inside the if
    }

    #[test]
    fn mvae_matches_expression_assignments() {
        let src = r#"
            fn f(a, b) {
                var x = 0;
                x = a + b * 2;
                x = 5;
                return x;
            }
        "#;
        let ms = scan_one("MVAE", src, "f");
        assert_eq!(ms.len(), 1);
        // slice: ld a, ld b, ldi 2, mul, add + st = 6 instructions
        assert_eq!(ms[0].patches.len(), 6);
    }

    #[test]
    fn mlpc_needs_a_long_straight_run() {
        let long = r#"
            fn f(a) {
                var x = a + 1;
                var y = a * 2;
                var z = a ^ 3;
                return x + y + z;
            }
        "#;
        assert!(!scan_one("MLPC", long, "f").is_empty());
        let short = "fn f(a) { return a; }";
        assert!(scan_one("MLPC", short, "f").is_empty());
        // Window length is fixed.
        for m in scan_one("MLPC", long, "f") {
            assert_eq!(m.patches.len(), MLPC_WINDOW);
        }
    }

    #[test]
    fn wvav_perturbs_literal() {
        let ms = scan_one("WVAV", "fn f() { var x = 41; return x; }", "f");
        assert_eq!(ms.len(), 1);
        let patched = Instr::decode(ms[0].patches[0].new_word).unwrap();
        assert_eq!(patched.op, Opcode::Ldi);
        assert_eq!(patched.imm, 42);
    }

    #[test]
    fn wlec_flips_comparison() {
        let ms = scan_one("WLEC", IF_SRC, "f");
        assert_eq!(ms.len(), 1);
        let patched = Instr::decode(ms[0].patches[0].new_word).unwrap();
        // a > b compiles to cmplt with swapped operands; flip → cmple.
        assert_eq!(patched.op, Opcode::Cmple);
    }

    #[test]
    fn wlec_skips_bare_variable_tests() {
        let src = "fn f(a) { if (a) { return 1; } return 0; }";
        assert!(scan_one("WLEC", src, "f").is_empty());
    }

    #[test]
    fn waep_mutates_argument_arithmetic() {
        let src = r#"
            fn g(x) { return x; }
            fn f(a, b) { return g(a + b); }
        "#;
        let ms = scan_one("WAEP", src, "f");
        assert_eq!(ms.len(), 1);
        let patched = Instr::decode(ms[0].patches[0].new_word).unwrap();
        assert_eq!(patched.op, Opcode::Sub);
    }

    #[test]
    fn wpfv_redirects_argument_load() {
        let src = r#"
            fn g(x) { return x; }
            fn f(a, b) { return g(a); }
        "#;
        let ms = scan_one("WPFV", src, "f");
        assert_eq!(ms.len(), 1);
        let patched = Instr::decode(ms[0].patches[0].new_word).unwrap();
        assert_eq!(patched.op, Opcode::Ld);
        assert_eq!(patched.imm, -2); // slot of `b` instead of `a`
    }

    #[test]
    fn wpfv_needs_two_slots() {
        let src = r#"
            fn g(x) { return x; }
            fn f(a) { return g(a); }
        "#;
        // Only one frame slot — nothing to confuse the variable with.
        assert!(scan_one("WPFV", src, "f").is_empty());
    }

    #[test]
    fn operator_library_is_complete() {
        let ops: Vec<CompiledOperator> = crate::pack::classic().compile().unwrap();
        assert_eq!(ops.len(), 12);
        let types: std::collections::BTreeSet<FaultType> =
            ops.iter().map(|o| o.fault_type()).collect();
        assert_eq!(types.len(), 12);
    }

    #[test]
    fn default_operator_id_is_the_acronym() {
        struct Bare;
        impl MutationOperator for Bare {
            fn fault_type(&self) -> FaultType {
                FaultType::Wpfv
            }
            fn scan(&self, _: &FuncView) -> Vec<Mutation> {
                Vec::new()
            }
        }
        assert_eq!(Bare.id(), "WPFV");
    }

    /// Applying MIFS actually changes behaviour the way a missing `if`
    /// would: the guarded statement never executes.
    #[test]
    fn mifs_mutation_end_to_end() {
        use mvm::{Memory, NoHcalls, Vm};
        let mut p = compile("t", IF_SRC).unwrap();
        let ms = {
            let vs = FuncView::all_of(p.image());
            classic_op("MIFS").scan(vs.iter().find(|v| v.name == "f").unwrap())
        };
        let undo = p.image_mut().apply(&ms[0].patches).unwrap();
        let mut vm = Vm::new();
        let mut mem = Memory::new(8192);
        let out = vm
            .call(p.image(), &mut mem, &mut NoHcalls, "f", &[9, 1])
            .unwrap();
        assert_eq!(out.return_value, 0); // without the if, r stays 0
        p.image_mut().revert(&undo);
        let out = vm
            .call(p.image(), &mut mem, &mut NoHcalls, "f", &[9, 1])
            .unwrap();
        assert_eq!(out.return_value, 1); // pristine behaviour restored
    }

    /// MIA makes the body unconditional.
    #[test]
    fn mia_mutation_end_to_end() {
        use mvm::{Memory, NoHcalls, Vm};
        let mut p = compile("t", IF_SRC).unwrap();
        let ms = {
            let vs = FuncView::all_of(p.image());
            classic_op("MIA").scan(vs.iter().find(|v| v.name == "f").unwrap())
        };
        p.image_mut().apply(&ms[0].patches).unwrap();
        let mut vm = Vm::new();
        let mut mem = Memory::new(8192);
        // a < b, so the pristine result is 0 — but MIA forces the body.
        let out = vm
            .call(p.image(), &mut mem, &mut NoHcalls, "f", &[1, 9])
            .unwrap();
        assert_eq!(out.return_value, 1);
    }
}
