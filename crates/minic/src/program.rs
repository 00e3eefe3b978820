//! The compiled program image.

use std::fmt;

use crate::isa::{Instr, VarId};

/// Bytes of frame header: return pc, caller fp, caller sp.
pub const FRAME_HEADER_BYTES: u32 = 12;

/// Which instrumentation pass (if any) has been applied to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Instrumentation {
    /// Plain compiled code; runs on continuous power, restarts from
    /// `main` after a power failure.
    #[default]
    None,
    /// TICS: stack segmentation checks, logged stores, checkpoints.
    Tics,
    /// MementOS-style voltage-check checkpoints.
    Mementos,
    /// Chinchilla-style local-to-global promotion.
    Chinchilla,
    /// Ratchet-style idempotent-boundary checkpoints.
    Ratchet,
    /// Task-based kernel (Alpaca/InK/MayFly): logged stores plus commit
    /// points at task boundaries.
    TaskBased,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Number of `int`-sized arguments.
    pub n_args: u16,
    /// Bytes of local variables (beyond the arguments).
    pub locals_bytes: u16,
    /// Maximum operand-stack depth in 4-byte words.
    pub max_ostack: u16,
    /// The body.
    pub code: Vec<Instr>,
    /// Set by the TICS pass: the entry carries a stack-availability check
    /// (adds code size and a per-call cycle cost).
    pub entry_checked: bool,
}

impl Function {
    /// Total frame size in bytes: header + args + locals + operand stack.
    #[must_use]
    pub fn frame_size(&self) -> u32 {
        FRAME_HEADER_BYTES
            + 4 * u32::from(self.n_args)
            + u32::from(self.locals_bytes)
            + 4 * u32::from(self.max_ostack)
    }

    /// Bytes of arguments.
    #[must_use]
    pub fn arg_bytes(&self) -> u32 {
        4 * u32::from(self.n_args)
    }

    /// Encoded size of the body in bytes.
    #[must_use]
    pub fn text_bytes(&self) -> u32 {
        let body: u32 = self.code.iter().map(Instr::encoded_size).sum();
        // An entry check compiles to a compare + conditional call (the
        // paper's lines 2-3 of Figure 7).
        body + if self.entry_checked { 10 } else { 0 }
    }
}

/// A global variable in `.data` (initialized) or `.bss` (zeroed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalVar {
    /// Source-level name.
    pub name: String,
    /// Byte offset in the data segment.
    pub offset: u32,
    /// Size in bytes (arrays are `4 * len`).
    pub size: u32,
    /// Declared `nv`: survives reboot even under the bare runtime (the
    /// paper's Figure 2 `NV` qualifier).
    pub nv: bool,
    /// Initializer words (`.data`), or empty for `.bss`.
    pub init: Vec<i32>,
    /// Time-annotation id if declared with `@expires_after`.
    pub var_id: Option<VarId>,
}

/// A time-annotated variable (declared with `@expires_after`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotatedVar {
    /// Index into [`Program::globals`].
    pub global_index: u32,
    /// Time-to-live in microseconds (`@expires_after = 0s` means "carries
    /// a timestamp but never expires").
    pub ttl_us: u64,
}

/// A complete compiled (and possibly instrumented) program image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// All functions; indices are [`Instr::Call`] operands.
    pub functions: Vec<Function>,
    /// All globals, with assigned data-segment offsets.
    pub globals: Vec<GlobalVar>,
    /// Total data-segment size in bytes.
    pub globals_size: u32,
    /// Index of `main` in [`Program::functions`].
    pub entry: u16,
    /// Time-annotated variables, indexed by [`VarId`].
    pub annotated: Vec<AnnotatedVar>,
    /// Which instrumentation pass has been applied.
    pub instrumentation: Instrumentation,
    /// Fixed `.text` footprint of the runtime library the instrumentation
    /// links in (checkpointing code, memory manager, ...).
    pub runtime_text_bytes: u32,
    /// Fixed `.data` footprint of the runtime library (excluding
    /// configurable buffers, as in the paper's Table 3 note).
    pub runtime_data_bytes: u32,
    /// Whether any function participates in a call-graph cycle. Recorded
    /// by codegen so passes that cannot support recursion (Chinchilla)
    /// can reject the program (paper §5.3.1).
    pub has_recursion: bool,
    /// Whether the *source* used pointer syntax (declarations, `*`, `&`).
    /// Task-based kernels reject such programs (static memory model,
    /// Table 5); plain array indexing does not count.
    pub uses_pointers: bool,
}

impl Program {
    /// Looks up a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<(u16, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (i as u16, f))
    }

    /// Looks up a global by name.
    #[must_use]
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Total `.text` bytes: all function bodies plus the runtime library.
    #[must_use]
    pub fn text_bytes(&self) -> u32 {
        self.functions.iter().map(Function::text_bytes).sum::<u32>() + self.runtime_text_bytes
    }

    /// Total `.data` bytes: program globals, per-annotated-variable
    /// timestamps, plus the runtime library's static data.
    #[must_use]
    pub fn data_bytes(&self) -> u32 {
        self.globals_size + 8 * self.annotated.len() as u32 + self.runtime_data_bytes
    }

    /// The largest frame of any function — the lower bound for a TICS
    /// stack-segment size (§3.1.1: "maximum stack frame in a program
    /// dictates the minimum block size").
    #[must_use]
    pub fn max_frame_size(&self) -> u32 {
        self.functions
            .iter()
            .map(Function::frame_size)
            .max()
            .unwrap_or(0)
    }

    /// Disassembles the whole program for debugging and golden tests.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.functions.iter().enumerate() {
            use fmt::Write as _;
            let _ = writeln!(
                out,
                "fn {} (f{}) args={} locals={}B ostack={} frame={}B{}",
                f.name,
                i,
                f.n_args,
                f.locals_bytes,
                f.max_ostack,
                f.frame_size(),
                if f.entry_checked { " [checked]" } else { "" },
            );
            for (pc, instr) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {pc:4}: {instr}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;

    fn sample_fn() -> Function {
        Function {
            name: "f".into(),
            n_args: 2,
            locals_bytes: 8,
            max_ostack: 3,
            code: vec![Instr::Const(1), Instr::Ret],
            entry_checked: false,
        }
    }

    #[test]
    fn frame_size_accounts_for_all_parts() {
        let f = sample_fn();
        assert_eq!(f.frame_size(), 12 + 8 + 8 + 12);
        assert_eq!(f.arg_bytes(), 8);
    }

    #[test]
    fn entry_check_adds_text() {
        let mut f = sample_fn();
        let plain = f.text_bytes();
        f.entry_checked = true;
        assert_eq!(f.text_bytes(), plain + 10);
    }

    #[test]
    fn program_sizes_sum_components() {
        let mut p = Program {
            functions: vec![sample_fn()],
            globals: vec![GlobalVar {
                name: "g".into(),
                offset: 0,
                size: 4,
                nv: false,
                init: vec![7],
                var_id: Some(0),
            }],
            globals_size: 4,
            entry: 0,
            annotated: vec![AnnotatedVar {
                global_index: 0,
                ttl_us: 1_000,
            }],
            ..Program::default()
        };
        p.runtime_text_bytes = 100;
        p.runtime_data_bytes = 20;
        assert_eq!(p.text_bytes(), sample_fn().text_bytes() + 100);
        assert_eq!(p.data_bytes(), 4 + 8 + 20);
        assert_eq!(p.max_frame_size(), sample_fn().frame_size());
    }

    #[test]
    fn lookup_by_name() {
        let p = Program {
            functions: vec![sample_fn()],
            ..Program::default()
        };
        assert_eq!(p.function("f").unwrap().0, 0);
        assert!(p.function("g").is_none());
        assert!(p.global("g").is_none());
    }

    #[test]
    fn disassembly_mentions_function_and_ops() {
        let p = Program {
            functions: vec![sample_fn()],
            ..Program::default()
        };
        let d = p.disassemble();
        assert!(d.contains("fn f"));
        assert!(d.contains("const 1"));
        assert!(d.contains("ret"));
    }
}
