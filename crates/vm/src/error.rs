//! VM errors.

use std::error::Error;
use std::fmt;

use tics_mcu::MemoryError;

/// An error raised while loading or executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A memory access failed (unmapped address).
    Memory(MemoryError),
    /// The program image is malformed (bad function index, jump target,
    /// missing entry, unresolved ISR, ...).
    Load(String),
    /// The stack cannot grow any further — the paper's "system
    /// starvation by stack overflow" for bounded segment arrays.
    StackOverflow {
        /// Human-readable context (which allocation failed).
        detail: String,
    },
    /// The program performed an illegal operation (division by zero,
    /// operand-stack underflow, ...).
    Trap(String),
    /// The runtime cannot execute this program image (wrong or missing
    /// instrumentation).
    IncompatibleInstrumentation {
        /// What the runtime expected.
        expected: String,
        /// What the program carries.
        found: String,
    },
    /// The executor's forward-progress guard tripped: `boots` consecutive
    /// reboots elapsed with no new checkpoint, no new externally visible
    /// event, and no termination — the classic checkpoint live-lock of a
    /// runtime whose recovery never outruns the power schedule.
    NoForwardProgress {
        /// Consecutive reboots observed without progress.
        boots: u64,
        /// Runtime that was executing when the guard tripped.
        runtime: String,
    },
}

impl VmError {
    /// The trap for fetching or resolving a pc past the end of the code,
    /// with one text for both dispatch engines. Out of line and cold:
    /// the decoded loop passes its pc by value and keeps it in a
    /// register.
    #[cold]
    #[inline(never)]
    pub(crate) fn pc_out_of_range(pc: u32) -> VmError {
        VmError::Trap(format!("pc {pc} out of range"))
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Memory(e) => write!(f, "memory error: {e}"),
            VmError::Load(m) => write!(f, "load error: {m}"),
            VmError::StackOverflow { detail } => write!(f, "stack overflow: {detail}"),
            VmError::Trap(m) => write!(f, "trap: {m}"),
            VmError::IncompatibleInstrumentation { expected, found } => {
                write!(
                    f,
                    "runtime expects {expected} instrumentation, program has {found}"
                )
            }
            VmError::NoForwardProgress { boots, runtime } => {
                write!(
                    f,
                    "no forward progress: {runtime} made no new checkpoint or \
                     visible event across {boots} consecutive reboots (live-lock)"
                )
            }
        }
    }
}

impl Error for VmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemoryError> for VmError {
    fn from(e: MemoryError) -> Self {
        VmError::Memory(e)
    }
}

impl From<tics_minic::CompileError> for VmError {
    fn from(e: tics_minic::CompileError) -> Self {
        VmError::Load(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_mcu::Addr;

    #[test]
    fn displays_are_informative() {
        let e = VmError::from(MemoryError::Unmapped {
            addr: Addr(4),
            len: 2,
        });
        assert!(e.to_string().contains("memory error"));
        assert!(VmError::Trap("divide by zero".into())
            .to_string()
            .contains("divide"));
        assert!(VmError::StackOverflow {
            detail: "segment array full".into()
        }
        .to_string()
        .contains("segment"));
    }
}
