//! Program loading: flattening per-function code into one image.

use std::sync::Arc;

use tics_minic::isa::Instr;
use tics_minic::program::{Function, Program};

use crate::decoded::DecodedProgram;
use crate::error::VmError;

/// A sentinel return address marking the bottom frame: returning to it
/// halts the machine with the returned value as exit code.
pub const RET_SENTINEL: u32 = u32::MAX;

/// A [`Program`] flattened for execution: one linear code vector with
/// per-function entry points; intra-function code targets rebased to
/// global instruction indices.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    /// The source image (sizes, globals, annotations).
    pub program: Program,
    /// Flattened code.
    pub code: Vec<Instr>,
    /// Entry pc of each function.
    pub entries: Vec<u32>,
    /// Function index owning each pc (same length as `code`).
    pub owner: Vec<u16>,
    /// The decoded fast-dispatch image, built once here and shared (the
    /// `Arc` makes cloning a loaded program — and thus running many
    /// machines off one image — free of re-decoding).
    pub decoded: Arc<DecodedProgram>,
}

impl LoadedProgram {
    /// Flattens and validates a program.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] if a call or code target is out of
    /// range, or the entry function is missing.
    pub fn load(program: Program) -> Result<LoadedProgram, VmError> {
        if program.functions.is_empty() {
            return Err(VmError::Load("program has no functions".into()));
        }
        if program.entry as usize >= program.functions.len() {
            return Err(VmError::Load("entry index out of range".into()));
        }
        let mut code = Vec::new();
        let mut entries = Vec::with_capacity(program.functions.len());
        let mut owner = Vec::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let base = code.len() as u32;
            entries.push(base);
            for instr in &f.code {
                let mut instr = *instr;
                if let Some(t) = instr.code_target() {
                    if t as usize > f.code.len() {
                        return Err(VmError::Load(format!(
                            "function `{}`: target of `{instr}` out of range",
                            f.name
                        )));
                    }
                    instr.set_code_target(base + t);
                } else if let Instr::Call(target) = instr {
                    if target as usize >= program.functions.len() {
                        return Err(VmError::Load(format!(
                            "function `{}`: call target f{target} out of range",
                            f.name
                        )));
                    }
                }
                code.push(instr);
                owner.push(fi as u16);
            }
            // Guarantee the function cannot run off its end even if the
            // compiler missed a return (defense in depth).
            code.push(Instr::Halt);
            owner.push(fi as u16);
        }
        let decoded = Arc::new(DecodedProgram::decode(&program, &code, &entries, &owner));
        Ok(LoadedProgram {
            program,
            code,
            entries,
            owner,
            decoded,
        })
    }

    /// The function metadata owning `pc`.
    ///
    /// # Errors
    ///
    /// [`VmError::Trap`] if `pc` is out of range: a pc restored from a
    /// corrupted frame header or checkpoint traps with the text both
    /// dispatch engines use for an out-of-range fetch.
    pub fn function_at(&self, pc: u32) -> crate::Result<&Function> {
        let fi = self
            .owner
            .get(pc as usize)
            .ok_or_else(|| VmError::pc_out_of_range(pc))?;
        Ok(&self.program.functions[*fi as usize])
    }

    /// Entry pc of function `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn entry_of(&self, idx: u16) -> u32 {
        self.entries[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_minic::{compile, opt::OptLevel};

    #[test]
    fn flattening_rebases_targets() {
        let prog = compile(
            "int f() { int i = 0; while (i < 3) { i++; } return i; }
             int main() { return f(); }",
            OptLevel::O0,
        )
        .unwrap();
        let loaded = LoadedProgram::load(prog).unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert!(loaded.entries[1] > 0);
        // All code targets resolve inside the owning function's range.
        for (pc, instr) in loaded.code.iter().enumerate() {
            if let Some(t) = instr.code_target() {
                assert_eq!(
                    loaded.owner[t as usize], loaded.owner[pc],
                    "target escaped its function"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_call_target() {
        let mut prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        prog.functions[0].code.insert(0, Instr::Call(9));
        assert!(matches!(LoadedProgram::load(prog), Err(VmError::Load(_))));
    }

    #[test]
    fn rejects_out_of_range_code_targets() {
        for bad in [Instr::Jz(99), Instr::ExpiresBlockBegin(0, 99)] {
            let mut prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
            prog.functions[0].code.insert(0, bad);
            assert!(
                matches!(LoadedProgram::load(prog), Err(VmError::Load(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn function_at_resolves_owner() {
        let prog = compile(
            "int f() { return 1; } int main() { return f(); }",
            OptLevel::O0,
        )
        .unwrap();
        let loaded = LoadedProgram::load(prog).unwrap();
        let e1 = loaded.entry_of(1);
        assert_eq!(loaded.function_at(e1).unwrap().name, "main");
        assert_eq!(loaded.function_at(0).unwrap().name, "f");
        assert_eq!(
            loaded.function_at(loaded.code.len() as u32).unwrap_err(),
            VmError::Trap(format!("pc {} out of range", loaded.code.len()))
        );
    }
}
