//! Bytecode optimizer: `O0` / `O1` / `O2` pipelines.
//!
//! Figure 9 (left) of the paper compares runtimes across compilers and
//! optimization levels; Chinchilla only works at `-O0`-style layouts while
//! TICS runs at any level. These pipelines provide the analogous axis:
//! `O1` adds constant folding and dead-code elimination, `O2` adds jump
//! threading and peephole rewrites.

use std::collections::BTreeSet;

use crate::isa::{Instr, UnOp};
use crate::program::{Function, Program};

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Constant folding + dead-code elimination.
    #[default]
    O1,
    /// `O1` plus jump threading and peephole rewrites.
    O2,
}

impl OptLevel {
    /// All levels, for sweeps.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

/// Optimizes a program in place.
pub fn optimize(prog: &mut Program, level: OptLevel) {
    if level == OptLevel::O0 {
        return;
    }
    for f in &mut prog.functions {
        // A couple of rounds reach a fixpoint on this IR in practice.
        for _ in 0..3 {
            constant_fold(f);
            if level >= OptLevel::O2 {
                thread_jumps(f);
                peephole(f);
            }
            eliminate_dead_code(f);
        }
    }
}

/// Removes the instructions at `dead` indices, remapping every code
/// target. A target pointing at a removed instruction is redirected to the
/// next surviving one.
pub(crate) fn remove_instrs(code: &mut Vec<Instr>, dead: &BTreeSet<usize>) {
    if dead.is_empty() {
        return;
    }
    let mut map = vec![0u32; code.len() + 1];
    let mut new_idx = 0u32;
    for (old, m) in map.iter_mut().enumerate().take(code.len()) {
        *m = new_idx;
        if !dead.contains(&old) {
            new_idx += 1;
        }
    }
    map[code.len()] = new_idx;
    let mut out = Vec::with_capacity(code.len() - dead.len());
    for (i, instr) in code.iter().enumerate() {
        if !dead.contains(&i) {
            out.push(remapped(*instr, &map));
        }
    }
    *code = out;
}

/// `instr` with its code target, if any, sent through `map` (old index →
/// new index).
fn remapped(mut instr: Instr, map: &[u32]) -> Instr {
    if let Some(t) = instr.code_target() {
        instr.set_code_target(map[t as usize]);
    }
    instr
}

/// Inserts instructions before given positions, remapping code targets.
/// `inserts` pairs an insertion index with the instruction to place there;
/// multiple inserts at one index keep their order. Jumps *to* an insertion
/// point land before the inserted code (so loop latches re-execute it —
/// that is what checkpoint-at-loop-head instrumentation wants).
pub(crate) fn insert_instrs(code: &mut Vec<Instr>, inserts: &[(usize, Instr)]) {
    if inserts.is_empty() {
        return;
    }
    let mut sorted: Vec<&(usize, Instr)> = inserts.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    let mut shift_at = vec![0u32; code.len() + 1];
    for (i, _) in &sorted {
        shift_at[*i] += 1;
    }
    // prefix sums: how many instructions inserted before old index i.
    let mut map = vec![0u32; code.len() + 1];
    let mut acc = 0u32;
    for i in 0..=code.len() {
        acc += shift_at[i];
        map[i] = i as u32 + acc - shift_at[i];
    }
    let mut out = Vec::with_capacity(code.len() + sorted.len());
    let mut si = 0;
    for (i, instr) in code.iter().enumerate() {
        while si < sorted.len() && sorted[si].0 == i {
            out.push(sorted[si].1);
            si += 1;
        }
        out.push(remapped(*instr, &map));
    }
    while si < sorted.len() {
        out.push(sorted[si].1);
        si += 1;
    }
    *code = out;
}

fn is_jump_target(code: &[Instr], idx: usize) -> bool {
    code.iter().any(|i| i.code_target() == Some(idx as u32))
}

fn constant_fold(f: &mut Function) {
    loop {
        let mut dead = BTreeSet::new();
        let mut changed = false;
        let code = &mut f.code;
        for i in 0..code.len() {
            if i + 2 < code.len() && !is_jump_target(code, i + 1) && !is_jump_target(code, i + 2) {
                if let (Instr::Const(a), Instr::Const(b), Instr::Bin(op)) =
                    (code[i], code[i + 1], code[i + 2])
                {
                    // A trapping operation stays in the code to trap at run time.
                    if let Ok(v) = op.apply(a, b) {
                        code[i] = Instr::Const(v);
                        dead.insert(i + 1);
                        dead.insert(i + 2);
                        changed = true;
                        break;
                    }
                }
            }
            if i + 1 < code.len() && !is_jump_target(code, i + 1) {
                if let Instr::Const(a) = code[i] {
                    match code[i + 1] {
                        Instr::Un(op) => {
                            code[i] = Instr::Const(op.apply(a));
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        Instr::Jz(t) => {
                            if a == 0 {
                                code[i] = Instr::Jmp(t);
                                dead.insert(i + 1);
                            } else {
                                dead.insert(i);
                                dead.insert(i + 1);
                            }
                            changed = true;
                            break;
                        }
                        Instr::Jnz(t) => {
                            if a != 0 {
                                code[i] = Instr::Jmp(t);
                                dead.insert(i + 1);
                            } else {
                                dead.insert(i);
                                dead.insert(i + 1);
                            }
                            changed = true;
                            break;
                        }
                        Instr::Pop => {
                            dead.insert(i);
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        if !changed {
            return;
        }
        remove_instrs(&mut f.code, &dead);
    }
}

fn thread_jumps(f: &mut Function) {
    // Jumps whose target is an unconditional jump follow the chain.
    let code = &mut f.code;
    for i in 0..code.len() {
        // Branches only: a catch target is entered by the runtime, not
        // by a jump, so it is not threaded.
        let (Instr::Jmp(mut t) | Instr::Jz(mut t) | Instr::Jnz(mut t)) = code[i] else {
            continue;
        };
        let mut hops = 0;
        while let Some(Instr::Jmp(next)) = code.get(t as usize) {
            if *next == t || hops > 8 {
                break; // self-loop guard
            }
            t = *next;
            hops += 1;
        }
        code[i].set_code_target(t);
    }
    // Jmp to the immediately following instruction is a no-op.
    let mut dead = BTreeSet::new();
    for (i, instr) in code.iter().enumerate() {
        if let Instr::Jmp(t) = instr {
            if *t as usize == i + 1 {
                dead.insert(i);
            }
        }
    }
    remove_instrs(&mut f.code, &dead);
}

fn peephole(f: &mut Function) {
    loop {
        let mut dead = BTreeSet::new();
        let code = &mut f.code;
        for i in 0..code.len().saturating_sub(1) {
            if is_jump_target(code, i + 1) {
                continue;
            }
            match (code[i], code[i + 1]) {
                // Value produced then immediately discarded.
                (Instr::Dup, Instr::Pop)
                | (Instr::LoadLocal(_), Instr::Pop)
                | (Instr::LoadGlobal(_), Instr::Pop)
                | (Instr::AddrLocal(_), Instr::Pop)
                | (Instr::AddrGlobal(_), Instr::Pop) => {
                    dead.insert(i);
                    dead.insert(i + 1);
                }
                // Boolean negation absorbed into the branch.
                (Instr::Un(UnOp::LogNot), Instr::Jz(t)) => {
                    code[i] = Instr::Jnz(t);
                    dead.insert(i + 1);
                }
                (Instr::Un(UnOp::LogNot), Instr::Jnz(t)) => {
                    code[i] = Instr::Jz(t);
                    dead.insert(i + 1);
                }
                _ => {}
            }
            if !dead.is_empty() {
                break;
            }
        }
        if dead.is_empty() {
            return;
        }
        remove_instrs(&mut f.code, &dead);
    }
}

fn eliminate_dead_code(f: &mut Function) {
    // Reachability from instruction 0.
    let code = &f.code;
    let mut reachable = vec![false; code.len()];
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        if i >= code.len() || reachable[i] {
            continue;
        }
        reachable[i] = true;
        let instr = &code[i];
        if let Some(t) = instr.code_target() {
            stack.push(t as usize);
        }
        match instr {
            Instr::Jmp(_) | Instr::Ret | Instr::Halt => {}
            _ => stack.push(i + 1),
        }
    }
    let dead: BTreeSet<usize> = (0..code.len()).filter(|i| !reachable[*i]).collect();
    remove_instrs(&mut f.code, &dead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BinOp, CkptSite};

    fn func(code: Vec<Instr>) -> Function {
        Function {
            name: "t".into(),
            n_args: 0,
            locals_bytes: 0,
            max_ostack: 4,
            code,
            entry_checked: false,
        }
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut f = func(vec![
            Instr::Const(6),
            Instr::Const(7),
            Instr::Bin(BinOp::Mul),
            Instr::Ret,
        ]);
        constant_fold(&mut f);
        assert_eq!(f.code, vec![Instr::Const(42), Instr::Ret]);
    }

    #[test]
    fn folds_constant_branches() {
        let mut f = func(vec![
            Instr::Const(1),
            Instr::Jz(4),
            Instr::Const(10),
            Instr::Ret,
            Instr::Const(20),
            Instr::Ret,
        ]);
        constant_fold(&mut f);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code, vec![Instr::Const(10), Instr::Ret]);
    }

    #[test]
    fn removes_unreachable_code() {
        let mut f = func(vec![
            Instr::Const(0),
            Instr::Ret,
            Instr::Const(99),
            Instr::Ret,
        ]);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code.len(), 2);
    }

    #[test]
    fn keeps_catch_targets_alive() {
        let mut f = func(vec![
            Instr::ExpiresBlockBegin(0, 4),
            Instr::ExpiresBlockEnd,
            Instr::Const(0),
            Instr::Ret,
            Instr::Const(7), // catch handler — reachable only via runtime
            Instr::Ret,
        ]);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code.len(), 6);
    }

    #[test]
    fn remove_instrs_remaps_targets() {
        let mut code = vec![
            Instr::Jmp(3),
            Instr::Pop, // dead
            Instr::Pop, // dead
            Instr::Ret,
        ];
        remove_instrs(&mut code, &BTreeSet::from([1, 2]));
        assert_eq!(code, vec![Instr::Jmp(1), Instr::Ret]);
    }

    #[test]
    fn remove_instrs_redirects_into_removed_region() {
        let mut code = vec![
            Instr::Jmp(1),
            Instr::Pop, // dead — jump should land on next survivor
            Instr::Ret,
        ];
        remove_instrs(&mut code, &BTreeSet::from([1]));
        assert_eq!(code, vec![Instr::Jmp(1), Instr::Ret]);
    }

    #[test]
    fn insert_instrs_shifts_targets() {
        let mut code = vec![Instr::Const(1), Instr::Jz(3), Instr::Const(2), Instr::Ret];
        insert_instrs(&mut code, &[(2, Instr::Checkpoint(CkptSite::Auto))]);
        assert_eq!(
            code,
            vec![
                Instr::Const(1),
                Instr::Jz(4),
                Instr::Checkpoint(CkptSite::Auto),
                Instr::Const(2),
                Instr::Ret,
            ]
        );
    }

    #[test]
    fn insert_at_jump_target_lands_before_insert() {
        // Backward jump to index 1; inserting at 1 must keep the loop
        // re-executing the inserted instruction.
        let mut code = vec![Instr::Const(0), Instr::Dup, Instr::Jnz(1), Instr::Ret];
        insert_instrs(&mut code, &[(1, Instr::Checkpoint(CkptSite::Auto))]);
        assert_eq!(code[1], Instr::Checkpoint(CkptSite::Auto));
        assert_eq!(code[3], Instr::Jnz(1));
    }

    #[test]
    fn peephole_removes_dup_pop() {
        let mut f = func(vec![Instr::Const(5), Instr::Dup, Instr::Pop, Instr::Ret]);
        peephole(&mut f);
        assert_eq!(f.code, vec![Instr::Const(5), Instr::Ret]);
    }

    #[test]
    fn peephole_fuses_lognot_branch() {
        let mut f = func(vec![
            Instr::LoadGlobal(0),
            Instr::Un(UnOp::LogNot),
            Instr::Jz(4),
            Instr::Const(1),
            Instr::Ret,
        ]);
        peephole(&mut f);
        assert_eq!(f.code[1], Instr::Jnz(3));
    }

    #[test]
    fn jump_threading_collapses_chains() {
        let mut f = func(vec![
            Instr::Jz(2),
            Instr::Ret,
            Instr::Jmp(4),
            Instr::Ret,
            Instr::Const(0),
            Instr::Ret,
        ]);
        thread_jumps(&mut f);
        assert_eq!(f.code[0], Instr::Jz(4));
    }

    #[test]
    fn o2_shrinks_constant_heavy_code() {
        use crate::{compile, opt::OptLevel};
        let src = "int main() { int x = 2 * 3 + 4; if (1) { x = x + 0 * 5; } return x; }";
        let o0 = compile(src, OptLevel::O0).unwrap();
        let o2 = compile(src, OptLevel::O2).unwrap();
        assert!(o2.text_bytes() < o0.text_bytes());
    }
}
