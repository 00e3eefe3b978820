//! Intermittency instrumentation passes.
//!
//! Each pass rewrites a compiled [`Program`] the way the corresponding
//! system's toolchain rewrites assembly, and tags the image so the
//! matching runtime (in `tics-core` / `tics-baselines`) accepts it:
//!
//! * [`instrument_tics`] — the paper's contribution: stack-availability
//!   checks at function entries (Figure 7), every global and pointer
//!   store routed through the memory manager's undo log (§3.1.2), and the
//!   TICS runtime library linked in. Time-annotation instructions are
//!   already emitted by codegen from the source syntax.
//! * [`instrument_mementos`] — MementOS-style: voltage-check checkpoint
//!   sites at function entries and loop latches; the runtime saves the
//!   full stack and all globals.
//! * [`instrument_chinchilla`] — Chinchilla-style: every local is
//!   promoted to a global (rejecting recursion), code is
//!   over-instrumented with checkpoint sites that the runtime disables
//!   heuristically.
//! * [`instrument_ratchet`] — Ratchet-style: checkpoints at idempotent-
//!   section boundaries (before WAR-violating stores; every pointer store
//!   is conservatively a boundary).

use std::collections::HashSet;

use crate::error::CompileError;
use crate::isa::{CkptSite, Instr};
use crate::opt::insert_instrs;
use crate::program::{Instrumentation, Program};

/// Fixed `.text`/`.data` footprints of each runtime library, calibrated so
/// whole-program sizes land in the regime of the paper's Table 3. The
/// paper's TICS excludes its configurable segment-array and undo-log
/// buffers from `.data`; we follow that convention (buffers are sized by
/// the runtime configuration instead).
pub mod footprint {
    /// TICS runtime library `.text` bytes (checkpointing, stack
    /// segmentation, memory manager, timekeeping glue).
    pub const TICS_TEXT: u32 = 3_900;
    /// TICS runtime static `.data` bytes (control block; excludes the
    /// configurable segment array and undo log).
    pub const TICS_DATA: u32 = 96;
    /// MementOS-style runtime `.text` bytes.
    pub const MEMENTOS_TEXT: u32 = 1_300;
    /// MementOS-style runtime `.data` bytes (voltage thresholds, flags).
    pub const MEMENTOS_DATA: u32 = 64;
    /// Chinchilla runtime `.text` bytes (checkpoint manager, enable/
    /// disable heuristic machinery, per-variable versioning shims).
    pub const CHINCHILLA_TEXT: u32 = 7_800;
    /// Chinchilla runtime fixed `.data` bytes (version bitmasks, swap
    /// lists, timer state).
    pub const CHINCHILLA_DATA: u32 = 700;
    /// Ratchet runtime `.text` bytes (register checkpoint only).
    pub const RATCHET_TEXT: u32 = 900;
    /// Ratchet runtime `.data` bytes.
    pub const RATCHET_DATA: u32 = 40;
}

/// Applies the TICS instrumentation (§4 "Implementation").
///
/// # Errors
///
/// Never fails today; returns `Result` for interface symmetry with the
/// other passes.
pub fn instrument_tics(prog: &mut Program) -> Result<(), CompileError> {
    for f in &mut prog.functions {
        f.entry_checked = true;
        for instr in &mut f.code {
            match *instr {
                Instr::StoreGlobal(off) => *instr = Instr::StoreGlobalLogged(off),
                Instr::StoreInd => *instr = Instr::StoreIndLogged,
                _ => {}
            }
        }
    }
    prog.instrumentation = Instrumentation::Tics;
    prog.runtime_text_bytes += footprint::TICS_TEXT;
    prog.runtime_data_bytes += footprint::TICS_DATA;
    Ok(())
}

/// Adds explicit checkpoint sites at the entry of the named functions —
/// the paper's `ST` configuration ("checkpoints at task boundaries") used
/// in the Figure 9 (right) comparison against task-based systems.
pub fn add_task_boundary_checkpoints(prog: &mut Program, task_functions: &[&str]) {
    let names: HashSet<&str> = task_functions.iter().copied().collect();
    for f in &mut prog.functions {
        if names.contains(f.name.as_str()) {
            insert_instrs(
                &mut f.code,
                &[(0, Instr::Checkpoint(CkptSite::TaskBoundary))],
            );
        }
    }
}

/// Whether the instruction at index `i` is a backward branch. Catch
/// targets always lie ahead of their `ExpiresBlockBegin`, so only
/// branches can close a loop.
fn is_loop_latch(i: usize, instr: &Instr) -> bool {
    matches!(instr, Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) if *t as usize <= i)
}

/// Applies MementOS-style instrumentation: a voltage-check checkpoint
/// site at every function entry and before every loop latch (backward
/// jump).
///
/// # Errors
///
/// Never fails today; returns `Result` for interface symmetry.
pub fn instrument_mementos(prog: &mut Program) -> Result<(), CompileError> {
    for f in &mut prog.functions {
        let mut inserts = vec![(0usize, Instr::Checkpoint(CkptSite::VoltageCheck))];
        for (i, instr) in f.code.iter().enumerate() {
            if is_loop_latch(i, instr) {
                inserts.push((i, Instr::Checkpoint(CkptSite::VoltageCheck)));
            }
        }
        insert_instrs(&mut f.code, &inserts);
    }
    prog.instrumentation = Instrumentation::Mementos;
    prog.runtime_text_bytes += footprint::MEMENTOS_TEXT;
    prog.runtime_data_bytes += footprint::MEMENTOS_DATA;
    Ok(())
}

/// Applies Chinchilla-style instrumentation.
///
/// Every function's locals are promoted to globals in non-volatile
/// memory, the program is over-instrumented with checkpoint sites, and
/// the double-buffering cost of all (original + promoted) statics is
/// charged to `.data` (paper §5.3.1).
///
/// # Errors
///
/// Returns an error if the program is recursive — local-to-global
/// promotion needs one static home per local, so "recursive function
/// calls … cannot be supported" (paper §5.3.1).
pub fn instrument_chinchilla(prog: &mut Program) -> Result<(), CompileError> {
    if prog.has_recursion {
        return Err(CompileError::global(
            "chinchilla: recursion is not supported (locals are promoted to globals)",
        ));
    }
    let mut promoted_base = prog.globals_size;
    for f in &mut prog.functions {
        // Locals (but not arguments, which travel with the call) get
        // static homes after the program's globals.
        let arg_bytes = f.arg_bytes();
        let base = promoted_base;
        for instr in &mut f.code {
            match *instr {
                Instr::LoadLocal(off) if u32::from(off) >= arg_bytes => {
                    *instr = Instr::LoadGlobal(base + u32::from(off) - arg_bytes);
                }
                Instr::StoreLocal(off) if u32::from(off) >= arg_bytes => {
                    *instr = Instr::StoreGlobal(base + u32::from(off) - arg_bytes);
                }
                Instr::AddrLocal(off) if u32::from(off) >= arg_bytes => {
                    *instr = Instr::AddrGlobal(base + u32::from(off) - arg_bytes);
                }
                _ => {}
            }
        }
        promoted_base += u32::from(f.locals_bytes);
        f.locals_bytes = 0;
        // Over-instrumentation: checkpoint sites at entry, before calls,
        // and at loop latches; the runtime's heuristic thins them out.
        let mut inserts = vec![(0usize, Instr::Checkpoint(CkptSite::Auto))];
        for (i, instr) in f.code.iter().enumerate() {
            if matches!(instr, Instr::Call(_)) || is_loop_latch(i, instr) {
                inserts.push((i, Instr::Checkpoint(CkptSite::Auto)));
            }
        }
        insert_instrs(&mut f.code, &inserts);
    }
    prog.globals_size = promoted_base;
    prog.instrumentation = Instrumentation::Chinchilla;
    prog.runtime_text_bytes += footprint::CHINCHILLA_TEXT;
    // Full double buffering of every static (original globals + promoted
    // locals) plus fixed runtime tables — the "decreasing the
    // scalability of memory requirements" the paper criticizes.
    prog.runtime_data_bytes += footprint::CHINCHILLA_DATA + prog.globals_size;
    Ok(())
}

/// Applies Ratchet-style instrumentation: a checkpoint *before* every
/// store that closes a write-after-read dependency, so a replayed
/// section never re-reads a location it already overwrote. With all
/// memory in FRAM (Ratchet's model), WAR hazards exist on globals *and*
/// stack slots, so local stores are tracked too; indirect accesses
/// cannot be disambiguated at compile time, so every pointer store is a
/// boundary and an indirect *read* taints every later store — the
/// paper's §3.1 observation that this makes pointer-heavy code
/// checkpoint after nearly every instruction.
///
/// The matching runtime checkpoints the register file *plus the current
/// frame* (this VM's analog of Ratchet's renamed register set), so the
/// value being stored is part of the restore point and the replayed
/// store is idempotent.
///
/// # Errors
///
/// Never fails today; returns `Result` for interface symmetry.
pub fn instrument_ratchet(prog: &mut Program) -> Result<(), CompileError> {
    for f in &mut prog.functions {
        let mut inserts = Vec::new();
        let mut read_globals: HashSet<u32> = HashSet::new();
        let mut read_locals: HashSet<u16> = HashSet::new();
        let mut indirect_read = false;
        let boundary = |inserts: &mut Vec<(usize, Instr)>,
                        read_globals: &mut HashSet<u32>,
                        read_locals: &mut HashSet<u16>,
                        indirect_read: &mut bool,
                        i: usize| {
            inserts.push((i, Instr::Checkpoint(CkptSite::Auto)));
            read_globals.clear();
            read_locals.clear();
            *indirect_read = false;
        };
        for (i, instr) in f.code.iter().enumerate() {
            match instr {
                Instr::LoadGlobal(off) => {
                    read_globals.insert(*off);
                }
                Instr::LoadLocal(off) => {
                    read_locals.insert(*off);
                }
                Instr::LoadInd => {
                    indirect_read = true;
                }
                Instr::StoreGlobal(off) | Instr::StoreGlobalLogged(off)
                    if (read_globals.contains(off) || indirect_read) =>
                {
                    boundary(
                        &mut inserts,
                        &mut read_globals,
                        &mut read_locals,
                        &mut indirect_read,
                        i,
                    );
                }
                Instr::StoreLocal(off) if (read_locals.contains(off) || indirect_read) => {
                    boundary(
                        &mut inserts,
                        &mut read_globals,
                        &mut read_locals,
                        &mut indirect_read,
                        i,
                    );
                }
                Instr::StoreInd | Instr::StoreIndLogged => {
                    // May alias anything.
                    boundary(
                        &mut inserts,
                        &mut read_globals,
                        &mut read_locals,
                        &mut indirect_read,
                        i,
                    );
                }
                Instr::Checkpoint(_) => {
                    read_globals.clear();
                    read_locals.clear();
                    indirect_read = false;
                }
                _ => {}
            }
        }
        insert_instrs(&mut f.code, &inserts);
    }
    prog.instrumentation = Instrumentation::Ratchet;
    prog.runtime_text_bytes += footprint::RATCHET_TEXT;
    prog.runtime_data_bytes += footprint::RATCHET_DATA;
    Ok(())
}

/// Applies task-based instrumentation for the Alpaca/InK/MayFly kernels.
///
/// Task programs are ported by hand (the "High" porting effort of
/// Table 5): the source provides one function per task plus a dispatcher
/// `main`. This pass routes every global store through the kernel's
/// privatization/undo machinery and places a commit point
/// ([`CkptSite::TaskBoundary`]) at the entry of every task function.
///
/// `runtime_text`/`runtime_data` are the kernel's library footprints
/// (they differ between Alpaca, InK, and MayFly — see
/// `tics-baselines::taskkernel`).
///
/// # Errors
///
/// Returns an error if a named task function does not exist.
pub fn instrument_task_based(
    prog: &mut Program,
    task_functions: &[&str],
    runtime_text: u32,
    runtime_data: u32,
) -> Result<(), CompileError> {
    for name in task_functions {
        if prog.function(name).is_none() {
            return Err(CompileError::global(format!(
                "task function `{name}` not found"
            )));
        }
    }
    for f in &mut prog.functions {
        for instr in &mut f.code {
            match *instr {
                Instr::StoreGlobal(off) => *instr = Instr::StoreGlobalLogged(off),
                Instr::StoreInd => *instr = Instr::StoreIndLogged,
                _ => {}
            }
        }
    }
    add_task_boundary_checkpoints(prog, task_functions);
    // Double-buffering of task-shared state is the dominant .data cost of
    // task-based systems (Table 3's InK row): one shadow copy of the
    // program's globals plus kernel queues.
    prog.instrumentation = Instrumentation::TaskBased;
    prog.runtime_text_bytes += runtime_text;
    prog.runtime_data_bytes += runtime_data + prog.globals_size;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptLevel;

    fn compile(src: &str) -> Program {
        crate::compile(src, OptLevel::O1).unwrap()
    }

    const LOOPY: &str = "
        int total;
        int main() {
            int local = 0;
            for (int i = 0; i < 10; i++) { local += i; }
            total = local;
            return total;
        }";

    #[test]
    fn tics_marks_entries_and_logs_stores() {
        let mut p = compile(LOOPY);
        instrument_tics(&mut p).unwrap();
        assert_eq!(p.instrumentation, Instrumentation::Tics);
        let (_, main) = p.function("main").unwrap();
        assert!(main.entry_checked);
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::StoreGlobalLogged(_))));
        assert!(!main.code.iter().any(|i| matches!(i, Instr::StoreGlobal(_))));
    }

    #[test]
    fn tics_logs_pointer_stores() {
        let mut p = compile(
            "int buf[4];
             int main() { int *p; p = buf; *p = 7; return buf[0]; }",
        );
        instrument_tics(&mut p).unwrap();
        let (_, main) = p.function("main").unwrap();
        assert!(main.code.contains(&Instr::StoreIndLogged));
        assert!(!main.code.contains(&Instr::StoreInd));
    }

    #[test]
    fn tics_grows_text_and_data() {
        let mut p = compile(LOOPY);
        let (t0, d0) = (p.text_bytes(), p.data_bytes());
        instrument_tics(&mut p).unwrap();
        assert!(p.text_bytes() > t0);
        assert!(p.data_bytes() > d0);
    }

    #[test]
    fn mementos_adds_sites_at_entry_and_latches() {
        let mut p = compile(LOOPY);
        instrument_mementos(&mut p).unwrap();
        let (_, main) = p.function("main").unwrap();
        let sites = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Checkpoint(CkptSite::VoltageCheck)))
            .count();
        assert!(sites >= 2, "entry + loop latch, got {sites}");
        assert_eq!(main.code[0], Instr::Checkpoint(CkptSite::VoltageCheck));
    }

    #[test]
    fn chinchilla_promotes_locals() {
        let mut p = compile(LOOPY);
        let before = p.globals_size;
        instrument_chinchilla(&mut p).unwrap();
        assert!(p.globals_size > before);
        let (_, main) = p.function("main").unwrap();
        assert_eq!(main.locals_bytes, 0);
        assert!(!main.code.iter().any(|i| matches!(
            i,
            Instr::LoadLocal(_) | Instr::StoreLocal(_) | Instr::AddrLocal(_)
        )));
    }

    #[test]
    fn chinchilla_keeps_argument_slots() {
        let mut p = compile(
            "int add(int a, int b) { int s = a + b; return s; }
             int main() { return add(1, 2); }",
        );
        instrument_chinchilla(&mut p).unwrap();
        let (_, add) = p.function("add").unwrap();
        // Arguments still read from the frame; the local `s` is promoted.
        assert!(add.code.iter().any(|i| matches!(i, Instr::LoadLocal(_))));
        assert!(add.code.iter().any(|i| matches!(i, Instr::StoreGlobal(_))));
    }

    #[test]
    fn chinchilla_rejects_recursion() {
        let mut p = compile(
            "int fib(int n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }
             int main() { return fib(5); }",
        );
        let err = instrument_chinchilla(&mut p).unwrap_err();
        assert!(err.message.contains("recursion"));
    }

    #[test]
    fn chinchilla_data_overhead_dwarfs_tics() {
        let mut chin = compile(LOOPY);
        instrument_chinchilla(&mut chin).unwrap();
        let mut tics = compile(LOOPY);
        instrument_tics(&mut tics).unwrap();
        assert!(chin.data_bytes() > 2 * tics.data_bytes());
        assert!(chin.text_bytes() > tics.text_bytes());
    }

    #[test]
    fn ratchet_checkpoints_war_and_pointer_stores() {
        let mut p = compile(
            "int g;
             int buf[4];
             int main() {
                 g = g + 1;          // WAR on g
                 buf[g] = 2;         // pointer-class store
                 return g;
             }",
        );
        instrument_ratchet(&mut p).unwrap();
        let (_, main) = p.function("main").unwrap();
        let sites = main
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Checkpoint(CkptSite::Auto)))
            .count();
        assert!(sites >= 2, "got {sites}");
    }

    #[test]
    fn task_based_pass_logs_stores_and_marks_boundaries() {
        let mut p = compile(
            "nv int cur; int shared;
             int task_a() { shared = 1; return 1; }
             int task_b() { shared = 2; return 0; }
             int main() { while (1) { if (cur == 0) { cur = task_a(); } else { cur = task_b(); } } return 0; }",
        );
        instrument_task_based(&mut p, &["task_a", "task_b"], 2_000, 4_000).unwrap();
        assert_eq!(p.instrumentation, Instrumentation::TaskBased);
        let (_, a) = p.function("task_a").unwrap();
        assert_eq!(a.code[0], Instr::Checkpoint(CkptSite::TaskBoundary));
        assert!(a
            .code
            .iter()
            .any(|i| matches!(i, Instr::StoreGlobalLogged(_))));
        assert!(instrument_task_based(&mut p.clone(), &["missing"], 0, 0).is_err());
    }

    #[test]
    fn task_boundary_checkpoints_target_named_functions() {
        let mut p = compile(
            "int work() { return 1; }
             int main() { return work(); }",
        );
        instrument_tics(&mut p).unwrap();
        add_task_boundary_checkpoints(&mut p, &["work"]);
        let (_, work) = p.function("work").unwrap();
        assert_eq!(work.code[0], Instr::Checkpoint(CkptSite::TaskBoundary));
        let (_, main) = p.function("main").unwrap();
        assert_ne!(main.code[0], Instr::Checkpoint(CkptSite::TaskBoundary));
    }
}
