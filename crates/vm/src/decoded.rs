//! One-time bytecode decoding for the fast-dispatch interpreter.
//!
//! [`DecodedProgram`] is built once per [`LoadedProgram`](crate::LoadedProgram)
//! and shared (via `Arc`) by every machine running that image. It lowers
//! [`Instr`] into a flat dense [`Op`] stream the executor can dispatch
//! without touching the source program, and it runs a JVM-style abstract
//! interpretation over every function to prove the operand-stack depth at
//! each pc. Verified functions execute with the per-push/per-pop frame
//! bound checks elided (each of which costs two `Vec` indexations through
//! `function_at` in the reference interpreter); anything the verifier
//! cannot prove falls back to [`Op::Ref`], which delegates to the
//! reference `step` and is therefore always exact.
//!
//! # Invariants
//!
//! * `ops.len() == code.len()`: a pc is an index into the stream, so
//!   checkpoint restores and jumps need no remapping.
//! * `ops[pc]` may hold a superinstruction covering `[pc, pc + len)`;
//!   the covered slots `pc+1 ..` still hold their individual plain ops,
//!   so control transfers *into* the middle of a fused sequence, and
//!   stops between its sub-ops, resume unfused and stay exact.
//! * Every op performs *identical simulated memory traffic* (addresses,
//!   order, cycle charges, span attribution, torn-store outcomes) to the
//!   reference interpreter. Decoding only removes host-side overhead:
//!   dispatch, redundant range checks, and stack-bound bookkeeping.
//! * In an unverified function every slot is [`Op::Ref`].

use tics_minic::isa::{BinOp, Instr, UnOp};
use tics_minic::program::{Program, FRAME_HEADER_BYTES};

/// A decoded operation. Offsets are pre-resolved: local slots fold in the
/// [`FRAME_HEADER_BYTES`] so execution is a single add to `fp`; global
/// slots stay data-segment-relative (the data base differs per machine
/// layout, the decoded image is shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push a constant.
    Const(i32),
    /// Push the local at `fp + offset` (header already folded in).
    LoadLocal(u32),
    /// Pop into the local at `fp + offset`.
    StoreLocal(u32),
    /// Push the address of the local at `fp + offset`.
    AddrLocal(u32),
    /// Push the global at `data_base + offset`.
    LoadGlobal(u32),
    /// Pop into the global at `data_base + offset`.
    StoreGlobal(u32),
    /// Push the address of the global at `data_base + offset`.
    AddrGlobal(u32),
    /// Pop an address, push the word at it.
    LoadInd,
    /// Pop a value, pop an address, store the value.
    StoreInd,
    /// Duplicate the stack top.
    Dup,
    /// Pop and discard.
    Pop,
    /// Swap the top two entries.
    Swap,
    /// Pop rhs, pop lhs, push the result.
    Bin(BinOp),
    /// Pop, transform, push.
    Un(UnOp),
    /// Unconditional jump (absolute pc).
    Jmp(u32),
    /// Pop; jump if zero.
    Jz(u32),
    /// Pop; jump if non-zero.
    Jnz(u32),

    // ---- superinstructions (fusion head slots only) ----
    //
    // Each one executes its constituent plain ops back to back — same
    // memory traffic, same cycle charges, same trap points — but with a
    // single dispatch. The selection comes from an n-gram census of the
    // seven fault-corpus programs across all five systems: local/global
    // load-immediate-ALU(-store) chains and compare-and-branch loop
    // headers dominate.
    /// `LoadLocal a; Const k; Bin op` (3 instructions).
    LdLKBin {
        /// Local offset of the lhs (header folded in).
        a: u32,
        /// Immediate rhs.
        k: i32,
        /// ALU operation.
        op: BinOp,
    },
    /// `LoadLocal a; Const k; Bin op; StoreLocal d` (4 instructions) —
    /// the `x = x OP imm` increment idiom.
    LdLKBinSt {
        /// Local offset of the lhs.
        a: u32,
        /// Immediate rhs.
        k: i32,
        /// ALU operation.
        op: BinOp,
        /// Local offset of the destination.
        d: u32,
    },
    /// `LoadLocal a; Const k; Bin op; Jz/Jnz t` (4 instructions) — the
    /// `while (i < N)` loop-header idiom.
    LdLKBinBr {
        /// Local offset of the lhs.
        a: u32,
        /// Immediate rhs.
        k: i32,
        /// Compare (or any ALU) operation feeding the branch.
        op: BinOp,
        /// Branch target (absolute pc).
        t: u32,
        /// `true` for `Jnz`, `false` for `Jz`.
        on_nz: bool,
    },
    /// `LoadGlobal g; Const k; Bin op` (3 instructions).
    LdGKBin {
        /// Global offset of the lhs.
        g: u32,
        /// Immediate rhs.
        k: i32,
        /// ALU operation.
        op: BinOp,
    },
    /// `LoadGlobal g; Const k; Bin op; StoreGlobal d` (4 instructions).
    LdGKBinSt {
        /// Global offset of the lhs.
        g: u32,
        /// Immediate rhs.
        k: i32,
        /// ALU operation.
        op: BinOp,
        /// Global offset of the destination.
        d: u32,
    },
    /// `Const k; Bin op` (2 instructions) — immediate rhs applied to
    /// whatever the preceding code left on the stack.
    KBin {
        /// Immediate rhs.
        k: i32,
        /// ALU operation.
        op: BinOp,
    },
    /// `Const k; StoreLocal d` (2 instructions).
    KStL {
        /// Immediate value.
        k: i32,
        /// Local offset of the destination.
        d: u32,
    },
    /// `Const k; StoreGlobal d` (2 instructions).
    KStG {
        /// Immediate value.
        k: i32,
        /// Global offset of the destination.
        d: u32,
    },

    /// Delegate this pc to the reference interpreter's `step` — used for
    /// calls, returns, syscalls, runtime-mediated instructions (logged
    /// stores, checkpoints, atomics, time annotations), `Halt`, and every
    /// pc of a function the verifier could not prove.
    Ref,
}

/// Sentinel depth for pcs the verifier never reached (dead code) or pcs
/// in unverified functions.
pub const DEPTH_UNKNOWN: i32 = -1;

/// The decoded image: the op stream plus verification metadata. Built
/// once in [`LoadedProgram::load`](crate::LoadedProgram::load) and shared
/// across machines.
#[derive(Debug)]
pub struct DecodedProgram {
    /// Dispatch stream with superinstructions at fusion head slots.
    pub ops: Vec<Op>,
    /// Proven operand-stack depth (in words) at each pc, or
    /// [`DEPTH_UNKNOWN`]. Only meaningful in verified functions.
    pub depths: Vec<i32>,
    /// Per-function: did depth verification succeed?
    pub verified: Vec<bool>,
    /// Number of superinstruction head slots in `ops` (diagnostics).
    pub fused: usize,
}

impl DecodedProgram {
    /// Decodes a flattened program. `code`, `entries`, and `owner` are the
    /// [`LoadedProgram`](crate::LoadedProgram) fields (jump targets
    /// already rebased to absolute pcs, one `Halt` appended per function).
    #[must_use]
    pub fn decode(program: &Program, code: &[Instr], entries: &[u32], owner: &[u16]) -> Self {
        let mut dp = DecodedProgram {
            ops: vec![Op::Ref; code.len()],
            depths: vec![DEPTH_UNKNOWN; code.len()],
            verified: vec![false; program.functions.len()],
            fused: 0,
        };
        for (fi, f) in program.functions.iter().enumerate() {
            let base = entries[fi] as usize;
            // Body plus the appended defensive Halt.
            let len = f.code.len() + 1;
            debug_assert!(base + len <= code.len() && owner[base] as usize == fi);
            if verify_function(program, fi, &code[base..base + len], base, &mut dp.depths) {
                dp.verified[fi] = true;
                lower_function(&code[base..base + len], base, f.frame_size(), &mut dp);
            }
        }
        fuse(code, &mut dp);
        dp
    }
}

/// Abstract interpretation of one function's operand-stack depth: a
/// worklist fixpoint proving an exact depth per reachable pc. Returns
/// `false` (leaving the function unverified → all [`Op::Ref`]) on any
/// join mismatch, underflow, or overflow past `max_ostack`; on success
/// the global `depths` entries for this function are filled in.
///
/// Soundness note: the reference interpreter's per-push overflow check is
/// `depth + 1 <= max_ostack` against the owning frame and its per-pop
/// underflow check is `depth >= 1` — exactly the constraints enforced
/// here, so eliding them on a verified path can never change behavior.
fn verify_function(
    program: &Program,
    fi: usize,
    code: &[Instr],
    base: usize,
    depths: &mut [i32],
) -> bool {
    let f = &program.functions[fi];
    let max = i32::from(f.max_ostack);
    let n = code.len();
    let mut local: Vec<i32> = vec![DEPTH_UNKNOWN; n];
    let mut work: Vec<usize> = vec![0];
    local[0] = 0;
    let join = |local: &mut Vec<i32>, work: &mut Vec<usize>, t: usize, d: i32| -> bool {
        if t >= n {
            return false;
        }
        if local[t] == DEPTH_UNKNOWN {
            local[t] = d;
            work.push(t);
            true
        } else {
            local[t] == d
        }
    };
    while let Some(pc) = work.pop() {
        let d = local[pc];
        let i = code[pc];
        let (pops, pushes) = i.stack_effect(|f| program.functions[f as usize].n_args);
        if d < i32::from(pops) {
            return false;
        }
        let d2 = d - i32::from(pops) + i32::from(pushes);
        // Intermediate depths never exceed max(d, d2): every op pops its
        // operands before pushing results (Swap/Dup pop first too), so
        // checking the endpoints covers the whole op.
        if d2 > max {
            return false;
        }
        let ok = match i {
            Instr::Halt | Instr::Ret => true,
            Instr::Jmp(t) => join(&mut local, &mut work, t as usize - base, d2),
            Instr::Jz(t) | Instr::Jnz(t) => {
                join(&mut local, &mut work, t as usize - base, d2)
                    && join(&mut local, &mut work, pc + 1, d2)
            }
            // The catch target is entered with the operand stack reset to
            // empty (`sp = operand_base` on rollback).
            Instr::ExpiresBlockBegin(_, t) => {
                join(&mut local, &mut work, t as usize - base, 0)
                    && join(&mut local, &mut work, pc + 1, d2)
            }
            _ => join(&mut local, &mut work, pc + 1, d2),
        };
        if !ok {
            return false;
        }
    }
    depths[base..base + n].copy_from_slice(&local);
    true
}

/// Lowers one verified function's instructions into plain ops.
/// Unreachable pcs and instructions outside the fast set stay
/// [`Op::Ref`].
fn lower_function(code: &[Instr], base: usize, frame_size: u32, dp: &mut DecodedProgram) {
    for (off, &i) in code.iter().enumerate() {
        let pc = base + off;
        if dp.depths[pc] == DEPTH_UNKNOWN {
            continue;
        }
        dp.ops[pc] = lower(i, frame_size);
    }
}

/// The plain decoding of one instruction in a function whose frame is
/// `frame_size` bytes. A local load or store lowers to a frame op only
/// when its word lies inside the frame, so a burst zone's frame
/// accessors never leave the frame through a local slot; any other
/// offset stays [`Op::Ref`].
fn lower(i: Instr, frame_size: u32) -> Op {
    let in_frame = |o: u16| FRAME_HEADER_BYTES + u32::from(o) + 4 <= frame_size;
    match i {
        Instr::Const(v) => Op::Const(v),
        Instr::LoadLocal(o) if in_frame(o) => Op::LoadLocal(FRAME_HEADER_BYTES + u32::from(o)),
        Instr::StoreLocal(o) if in_frame(o) => Op::StoreLocal(FRAME_HEADER_BYTES + u32::from(o)),
        Instr::AddrLocal(o) => Op::AddrLocal(FRAME_HEADER_BYTES + u32::from(o)),
        Instr::LoadGlobal(o) => Op::LoadGlobal(o),
        Instr::StoreGlobal(o) => Op::StoreGlobal(o),
        Instr::AddrGlobal(o) => Op::AddrGlobal(o),
        Instr::LoadInd => Op::LoadInd,
        Instr::StoreInd => Op::StoreInd,
        Instr::Dup => Op::Dup,
        Instr::Pop => Op::Pop,
        Instr::Swap => Op::Swap,
        Instr::Bin(op) => Op::Bin(op),
        Instr::Un(op) => Op::Un(op),
        Instr::Jmp(t) => Op::Jmp(t),
        Instr::Jz(t) => Op::Jz(t),
        Instr::Jnz(t) => Op::Jnz(t),
        // Runtime-mediated or frame-changing instructions: the reference
        // interpreter is the implementation.
        _ => Op::Ref,
    }
}

/// Superinstruction selection: greedy longest-match over the original
/// instruction stream, head slots rewritten in place. A fused window
/// never contains control-flow except as its final element, never spans
/// a `Ref` slot, and only covers reachable verified pcs — but it does
/// *not* need to avoid jump targets, because the covered slots keep their
/// plain ops and a mid-window entry simply executes unfused.
fn fuse(code: &[Instr], dp: &mut DecodedProgram) {
    let n = code.len();
    let mut pc = 0;
    while pc < n {
        if dp.depths[pc] == DEPTH_UNKNOWN || matches!(dp.ops[pc], Op::Ref) {
            pc += 1;
            continue;
        }
        let win = &code[pc..n.min(pc + 4)];
        let (op, len) = match *win {
            [Instr::LoadLocal(a), Instr::Const(k), Instr::Bin(op), Instr::StoreLocal(d), ..] => (
                Op::LdLKBinSt {
                    a: FRAME_HEADER_BYTES + u32::from(a),
                    k,
                    op,
                    d: FRAME_HEADER_BYTES + u32::from(d),
                },
                4,
            ),
            [Instr::LoadLocal(a), Instr::Const(k), Instr::Bin(op), Instr::Jz(t), ..] => (
                Op::LdLKBinBr {
                    a: FRAME_HEADER_BYTES + u32::from(a),
                    k,
                    op,
                    t,
                    on_nz: false,
                },
                4,
            ),
            [Instr::LoadLocal(a), Instr::Const(k), Instr::Bin(op), Instr::Jnz(t), ..] => (
                Op::LdLKBinBr {
                    a: FRAME_HEADER_BYTES + u32::from(a),
                    k,
                    op,
                    t,
                    on_nz: true,
                },
                4,
            ),
            [Instr::LoadGlobal(g), Instr::Const(k), Instr::Bin(op), Instr::StoreGlobal(d), ..] => {
                (Op::LdGKBinSt { g, k, op, d }, 4)
            }
            [Instr::LoadLocal(a), Instr::Const(k), Instr::Bin(op), ..] => (
                Op::LdLKBin {
                    a: FRAME_HEADER_BYTES + u32::from(a),
                    k,
                    op,
                },
                3,
            ),
            [Instr::LoadGlobal(g), Instr::Const(k), Instr::Bin(op), ..] => {
                (Op::LdGKBin { g, k, op }, 3)
            }
            [Instr::Const(k), Instr::Bin(op), ..] => (Op::KBin { k, op }, 2),
            [Instr::Const(k), Instr::StoreLocal(d), ..] => (
                Op::KStL {
                    k,
                    d: FRAME_HEADER_BYTES + u32::from(d),
                },
                2,
            ),
            [Instr::Const(k), Instr::StoreGlobal(d), ..] => (Op::KStG { k, d }, 2),
            _ => {
                pc += 1;
                continue;
            }
        };
        // Every covered pc must be a reachable fast slot of the same
        // function; the window length guarantee plus the appended Halt
        // (which never matches a pattern element) keeps windows inside
        // one function, but dead tails guard anyway.
        if (pc..pc + len).all(|p| dp.depths[p] != DEPTH_UNKNOWN && !matches!(dp.ops[p], Op::Ref)) {
            dp.ops[pc] = op;
            dp.fused += 1;
            pc += len;
        } else {
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loaded::LoadedProgram;
    use tics_minic::{compile, opt::OptLevel};

    fn decode_src(src: &str) -> (LoadedProgram, DecodedProgram) {
        let prog = compile(src, OptLevel::O2).unwrap();
        let loaded = LoadedProgram::load(prog).unwrap();
        let dp = DecodedProgram::decode(
            &loaded.program,
            &loaded.code,
            &loaded.entries,
            &loaded.owner,
        );
        (loaded, dp)
    }

    #[test]
    fn compiled_functions_verify() {
        let (loaded, dp) = decode_src(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int g;
             int main() { int s = 0; for (int i = 0; i < 10; i++) { s += fib(i); } g = s; return s; }",
        );
        assert!(dp.verified.iter().all(|&v| v), "compiler output verifies");
        assert_eq!(dp.ops.len(), loaded.code.len());
        // Entry of every function is reachable at depth 0.
        for &e in &loaded.entries {
            assert_eq!(dp.depths[e as usize], 0);
        }
    }

    #[test]
    fn loops_get_fused() {
        let (loaded, dp) = decode_src(
            "int main() { int s = 0; for (int i = 0; i < 100; i++) { s = s + 3; } return s; }",
        );
        assert!(dp.fused > 0, "loop body should produce superinstructions");
        // Covered slots keep their plain ops, so a stop between sub-ops
        // or a jump into the window resumes unfused.
        for (pc, op) in dp.ops.iter().enumerate() {
            let len = match op {
                Op::KBin { .. } | Op::KStL { .. } | Op::KStG { .. } => 2,
                Op::LdLKBin { .. } | Op::LdGKBin { .. } => 3,
                Op::LdLKBinSt { .. } | Op::LdLKBinBr { .. } | Op::LdGKBinSt { .. } => 4,
                _ => continue,
            };
            let frame_size = loaded.function_at(pc as u32).unwrap().frame_size();
            for p in pc + 1..pc + len {
                assert_eq!(dp.ops[p], lower(loaded.code[p], frame_size), "pc {p}");
            }
        }
    }

    #[test]
    fn undersized_ostack_leaves_function_unverified() {
        let prog = compile("int main() { return 1 + 2 + 3; }", OptLevel::O0).unwrap();
        let mut bad = prog.clone();
        bad.functions[0].max_ostack = 0;
        let loaded = LoadedProgram::load(bad).unwrap();
        let dp = DecodedProgram::decode(
            &loaded.program,
            &loaded.code,
            &loaded.entries,
            &loaded.owner,
        );
        assert!(!dp.verified[0]);
        assert!(dp.ops.iter().all(|op| matches!(op, Op::Ref)));
    }

    #[test]
    fn runtime_mediated_instrs_stay_ref() {
        let (loaded, dp) =
            decode_src("int main() { int x = sample(); send(x); checkpoint(); return 0; }");
        for (pc, i) in loaded.code.iter().enumerate() {
            if matches!(
                i,
                Instr::Syscall(_)
                    | Instr::Checkpoint(_)
                    | Instr::Call(_)
                    | Instr::Ret
                    | Instr::Halt
            ) {
                assert!(matches!(dp.ops[pc], Op::Ref), "pc {pc}: {i:?}");
            }
        }
    }

    #[test]
    fn out_of_frame_local_offsets_stay_ref() {
        let mut prog = compile(
            "int main() { int x = 7; x = x + 1; return x; }",
            OptLevel::O0,
        )
        .unwrap();
        let f = &mut prog.functions[0];
        // The frame ends `max_ostack` words past the last local slot:
        // the first offset whose word crosses the frame end.
        let past = u16::try_from(f.frame_size() - FRAME_HEADER_BYTES - 3).unwrap();
        let last = past - 1;
        f.code.splice(
            0..0,
            [
                Instr::LoadLocal(last),
                Instr::StoreLocal(last),
                Instr::LoadLocal(past),
                Instr::StoreLocal(past),
            ],
        );
        let loaded = LoadedProgram::load(prog).unwrap();
        let dp = &loaded.decoded;
        assert!(dp.verified[0]);
        assert_eq!(
            dp.ops[0],
            Op::LoadLocal(FRAME_HEADER_BYTES + u32::from(last))
        );
        assert_eq!(
            dp.ops[1],
            Op::StoreLocal(FRAME_HEADER_BYTES + u32::from(last))
        );
        assert_eq!(dp.ops[2], Op::Ref);
        assert_eq!(dp.ops[3], Op::Ref);
    }

    #[test]
    fn header_offset_is_folded_into_locals() {
        let (loaded, dp) = decode_src("int main() { int x = 7; return x; }");
        // O2 may fuse a surviving LoadLocal into a superinstruction head;
        // either way its operand has the header folded in.
        for (pc, i) in loaded.code.iter().enumerate() {
            if let Instr::LoadLocal(o) = i {
                let a = match dp.ops[pc] {
                    Op::LoadLocal(a)
                    | Op::LdLKBin { a, .. }
                    | Op::LdLKBinSt { a, .. }
                    | Op::LdLKBinBr { a, .. } => a,
                    other => panic!("pc {pc}: {other:?}"),
                };
                assert_eq!(a, FRAME_HEADER_BYTES + u32::from(*o));
            }
        }
    }
}
