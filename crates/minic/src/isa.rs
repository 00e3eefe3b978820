//! The bytecode instruction set executed by `tics-vm`.
//!
//! The ISA is a compact stack machine whose operand stack lives *inside
//! the current frame in simulated memory* — so the only volatile machine
//! state is the register file, exactly as on the MSP430 targets the paper
//! instruments.
//!
//! This module is the one home of every per-instruction fact; the
//! compiler, the optimizer, the loader, the decoder and both VM engines
//! ask it rather than restating it:
//!
//! * **size** — [`Instr::encoded_size`] models MSP430 code density and
//!   sums to the `.text` figures of Table 3;
//! * **stack effect** — [`Instr::stack_effect`] gives the words each
//!   instruction pops and pushes (codegen's `max_ostack`, the decoder's
//!   depth verifier);
//! * **code targets** — [`Instr::code_target`] and
//!   [`Instr::set_code_target`] reach every instruction index an
//!   instruction can transfer control to, branch and catch targets alike
//!   (optimizer remapping, loader relocation);
//! * **semantics** — [`BinOp::apply`] and [`UnOp::apply`] are the only
//!   i32 ALU (both engines and constant folding).
//!
//! Instructions in the "intermittency" group are emitted by the
//! instrumentation passes in [`crate::passes`] (or, for the time
//! annotations, directly by codegen from TICS source syntax) and are
//! routed by the VM to the active `IntermittentRuntime`
//! (`tics-vm::IntermittentRuntime`).

use std::fmt;

/// Identifier of a time-annotated variable (index into
/// [`Program::annotated`](crate::program::Program::annotated)).
pub type VarId = u16;

/// Built-in system calls (sensors, radio, time, debug).
///
/// Syscalls model the I/O library of the paper's benchmark applications;
/// the VM implements them deterministically so experiments are
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Syscall {
    /// Generic sensor sample; returns `int`.
    Sample = 0,
    /// Three-axis accelerometer sample (AR benchmark).
    SampleAccel = 1,
    /// Soil-moisture sample (GHM application).
    SampleMoisture = 2,
    /// Ambient-temperature sample (GHM application).
    SampleTemp = 3,
    /// Transmit a value over the radio.
    Send = 4,
    /// Current time in milliseconds from the device's timekeeper.
    TimeMs = 5,
    /// Drive the LED.
    Led = 6,
    /// Deterministic 16-bit pseudo-random number.
    Rand = 7,
    /// Mark completion of a named routine (experiment bookkeeping; the
    /// hardware equivalent is a GPIO toggle counted by a logic analyzer).
    Mark = 8,
    /// Debug print of an `int`.
    Print = 9,
    /// Request a manual checkpoint from the runtime.
    CheckpointNow = 10,
    /// Current time in microseconds (low 31 bits).
    TimeUs = 11,
    /// Allocate `n` bytes from the persistent FRAM heap; returns the
    /// address, or 0 when the heap is exhausted. The allocator's bump
    /// pointer is undo-logged by consistency-managing runtimes, so a
    /// rolled-back execution re-allocates the same addresses.
    Alloc = 12,
    /// Clock one byte onto the UART TX wire; returns 1 if the byte
    /// completed before the energy deadline, 0 if it tore.
    UartTx = 13,
    /// Read one byte from the UART RX FIFO; returns the byte or -1.
    UartRx = 14,
    /// I2C START + address phase; returns 0 on ACK, -1 on NACK.
    I2cStart = 15,
    /// Write one byte on the I2C bus; returns 0 on ACK, -1 on NACK.
    I2cWrite = 16,
    /// Read one byte from the addressed I2C device; returns the byte or
    /// -1 outside a valid read phase.
    I2cRead = 17,
    /// I2C STOP; returns 0 if the device committed the transaction, -1
    /// otherwise (torn phase or incomplete reading).
    I2cStop = 18,
    /// I2C bus-clear: aborts a half-completed device-side transaction
    /// without committing it; returns 0.
    I2cReset = 19,
    /// Open (or re-enter) journaled peripheral transaction `id`.
    /// Returns the attempt number (≥ 0: proceed), -1 (already
    /// committed: skip), or -2 (poisoned: skip). Runtimes without a
    /// transaction journal always return 0 — the un-hardened control.
    TxBegin = 20,
    /// Commit journaled peripheral transaction `id`; returns 0.
    TxCommit = 21,
}

impl Syscall {
    /// Number of `int` arguments the syscall pops.
    #[must_use]
    pub fn arg_count(self) -> u8 {
        match self {
            Syscall::Sample
            | Syscall::SampleAccel
            | Syscall::SampleMoisture
            | Syscall::SampleTemp
            | Syscall::TimeMs
            | Syscall::Rand
            | Syscall::CheckpointNow
            | Syscall::TimeUs
            | Syscall::UartRx
            | Syscall::I2cRead
            | Syscall::I2cStop
            | Syscall::I2cReset => 0,
            Syscall::Send
            | Syscall::Led
            | Syscall::Mark
            | Syscall::Print
            | Syscall::Alloc
            | Syscall::UartTx
            | Syscall::I2cStart
            | Syscall::I2cWrite
            | Syscall::TxBegin
            | Syscall::TxCommit => 1,
        }
    }

    /// Resolves a source-level builtin name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Syscall> {
        Some(match name {
            "sample" => Syscall::Sample,
            "sample_accel" => Syscall::SampleAccel,
            "sample_moisture" => Syscall::SampleMoisture,
            "sample_temp" => Syscall::SampleTemp,
            "send" => Syscall::Send,
            "time_ms" => Syscall::TimeMs,
            "led" => Syscall::Led,
            "rand16" => Syscall::Rand,
            "mark" => Syscall::Mark,
            "print" => Syscall::Print,
            "checkpoint" => Syscall::CheckpointNow,
            "time_us" => Syscall::TimeUs,
            "alloc" => Syscall::Alloc,
            "uart_tx" => Syscall::UartTx,
            "uart_rx" => Syscall::UartRx,
            "i2c_start" => Syscall::I2cStart,
            "i2c_write" => Syscall::I2cWrite,
            "i2c_read" => Syscall::I2cRead,
            "i2c_stop" => Syscall::I2cStop,
            "i2c_reset" => Syscall::I2cReset,
            "tx_begin" => Syscall::TxBegin,
            "tx_commit" => Syscall::TxCommit,
            _ => return None,
        })
    }
}

/// Why a checkpoint site exists in the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CkptSite {
    /// Automatically inserted by an instrumentation pass.
    Auto,
    /// A `checkpoint()` call written by the programmer.
    Manual,
    /// Placed at a task boundary (the paper's `ST` configuration).
    TaskBoundary,
    /// MementOS-style site: checkpoint only if the supply voltage is low.
    VoltageCheck,
    /// End of a time-constrained block (`@timely`, `@expires`).
    TimeBlockEnd,
}

/// One bytecode instruction.
///
/// Jump targets are instruction indices within the owning function's code
/// vector. Global operands are byte offsets into the program's data
/// segment; the VM adds the runtime-configured data base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    // ---- data movement ----
    /// Push a constant.
    Const(i32),
    /// Push the 4-byte local/arg slot at byte offset from the frame body.
    LoadLocal(u16),
    /// Pop into the local/arg slot at byte offset.
    StoreLocal(u16),
    /// Push the absolute address of a local slot (enables `&x` and local
    /// arrays).
    AddrLocal(u16),
    /// Push the 4-byte global at a data-segment byte offset.
    LoadGlobal(u32),
    /// Pop into a global.
    StoreGlobal(u32),
    /// Pop into a global, via the runtime's undo log (instrumented form).
    StoreGlobalLogged(u32),
    /// Push the absolute address of a global.
    AddrGlobal(u32),
    /// Pop an address; push the 4-byte value it points to.
    LoadInd,
    /// Pop a value, pop an address; store the value at the address.
    StoreInd,
    /// [`Instr::StoreInd`] via the runtime's pointer classification +
    /// undo log (instrumented form).
    StoreIndLogged,
    /// Duplicate the top of the operand stack.
    Dup,
    /// Discard the top of the operand stack.
    Pop,
    /// Swap the two top operand-stack entries.
    Swap,

    // ---- arithmetic & logic ----
    /// Pop rhs, pop lhs, push `lhs op rhs` ([`BinOp::apply`]).
    Bin(BinOp),
    /// Pop, push `op operand` ([`UnOp::apply`]).
    Un(UnOp),

    // ---- control flow ----
    /// Unconditional jump to an instruction index.
    Jmp(u32),
    /// Pop; jump if zero.
    Jz(u32),
    /// Pop; jump if non-zero.
    Jnz(u32),
    /// Call function by index; arguments are on the operand stack.
    Call(u16),
    /// Return; the return value is on the operand stack.
    Ret,
    /// Stop the machine (end of `main`).
    Halt,
    /// Invoke a built-in.
    Syscall(Syscall),

    // ---- intermittency instrumentation ----
    /// A checkpoint site; the runtime decides whether to act.
    Checkpoint(CkptSite),
    /// Disable automatic checkpoints (start of an atomic region).
    AtomicBegin,
    /// Re-enable automatic checkpoints.
    AtomicEnd,
    /// Record "now" as the timestamp of an annotated variable (`@=`).
    TimestampVar(VarId),
    /// Push 1 if the annotated variable is still fresh (its
    /// `@expires_after` TTL has not elapsed) else 0.
    ExpiresCheck(VarId),
    /// Pop a deadline in milliseconds; push 1 if `now < deadline`
    /// (`@timely`).
    TimelyCheck,
    /// Enter an exception-style `@expires`/`catch` block for a variable;
    /// on expiration the runtime rolls back the block's writes and jumps
    /// to the catch target (instruction index).
    ExpiresBlockBegin(VarId, u32),
    /// Leave an `@expires`/`catch` block.
    ExpiresBlockEnd,
}

impl Instr {
    /// Encoded size in bytes, modeling MSP430 code density. `.text` size
    /// (Table 3) is the sum over all instructions plus per-pass fixed
    /// runtime-library footprints.
    #[must_use]
    pub fn encoded_size(&self) -> u32 {
        match self {
            Instr::Const(_) => 4,
            Instr::LoadLocal(_) | Instr::StoreLocal(_) | Instr::AddrLocal(_) => 3,
            Instr::LoadGlobal(_) | Instr::StoreGlobal(_) | Instr::AddrGlobal(_) => 4,
            Instr::StoreGlobalLogged(_) => 8,
            Instr::LoadInd | Instr::StoreInd => 2,
            Instr::StoreIndLogged => 8,
            Instr::Dup | Instr::Pop | Instr::Swap => 1,
            Instr::Bin(_) | Instr::Un(_) => 2,
            Instr::Jmp(_) | Instr::Jz(_) | Instr::Jnz(_) => 3,
            Instr::Call(_) => 4,
            Instr::Ret => 2,
            Instr::Halt => 1,
            Instr::Syscall(_) => 4,
            Instr::Checkpoint(_) => 6,
            Instr::AtomicBegin | Instr::AtomicEnd => 4,
            Instr::TimestampVar(_) => 6,
            Instr::ExpiresCheck(_) => 8,
            Instr::TimelyCheck => 8,
            Instr::ExpiresBlockBegin(_, _) => 10,
            Instr::ExpiresBlockEnd => 4,
        }
    }

    /// Operand-stack words this instruction pops, then pushes, as
    /// `(pops, pushes)`; `call_args` maps a [`Instr::Call`] callee index to
    /// its argument count. The effect holds on the fall-through and branch
    /// successors alike; an `ExpiresBlockBegin` catch target is instead
    /// entered with an empty operand stack.
    #[must_use]
    pub fn stack_effect(self, call_args: impl FnOnce(u16) -> u16) -> (u16, u16) {
        match self {
            Instr::Const(_)
            | Instr::LoadLocal(_)
            | Instr::AddrLocal(_)
            | Instr::LoadGlobal(_)
            | Instr::AddrGlobal(_)
            | Instr::ExpiresCheck(_) => (0, 1),
            Instr::StoreLocal(_)
            | Instr::StoreGlobal(_)
            | Instr::StoreGlobalLogged(_)
            | Instr::Pop
            | Instr::Jz(_)
            | Instr::Jnz(_)
            | Instr::Ret => (1, 0),
            Instr::StoreInd | Instr::StoreIndLogged => (2, 0),
            Instr::LoadInd | Instr::Un(_) | Instr::TimelyCheck => (1, 1),
            Instr::Dup => (1, 2),
            Instr::Swap => (2, 2),
            Instr::Bin(_) => (2, 1),
            Instr::Call(f) => (call_args(f), 1),
            Instr::Syscall(s) => (u16::from(s.arg_count()), 1),
            Instr::Jmp(_)
            | Instr::Halt
            | Instr::Checkpoint(_)
            | Instr::AtomicBegin
            | Instr::AtomicEnd
            | Instr::TimestampVar(_)
            | Instr::ExpiresBlockBegin(..)
            | Instr::ExpiresBlockEnd => (0, 0),
        }
    }

    /// The instruction index this instruction can transfer control to:
    /// the target of `Jmp`/`Jz`/`Jnz`, or the catch target of
    /// `ExpiresBlockBegin`.
    #[must_use]
    pub fn code_target(&self) -> Option<u32> {
        match *self {
            Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) | Instr::ExpiresBlockBegin(_, t) => {
                Some(t)
            }
            _ => None,
        }
    }

    /// Rewrites the [`Instr::code_target`]; other instructions are left
    /// unchanged.
    pub fn set_code_target(&mut self, new: u32) {
        if let Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) | Instr::ExpiresBlockBegin(_, t) = self
        {
            *t = new;
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Const(v) => write!(f, "const {v}"),
            Instr::LoadLocal(o) => write!(f, "loadl {o}"),
            Instr::StoreLocal(o) => write!(f, "storel {o}"),
            Instr::AddrLocal(o) => write!(f, "leal {o}"),
            Instr::LoadGlobal(o) => write!(f, "loadg {o}"),
            Instr::StoreGlobal(o) => write!(f, "storeg {o}"),
            Instr::StoreGlobalLogged(o) => write!(f, "storeg.log {o}"),
            Instr::AddrGlobal(o) => write!(f, "leag {o}"),
            Instr::LoadInd => write!(f, "loadi"),
            Instr::StoreInd => write!(f, "storei"),
            Instr::StoreIndLogged => write!(f, "storei.log"),
            Instr::Dup => write!(f, "dup"),
            Instr::Pop => write!(f, "pop"),
            Instr::Swap => write!(f, "swap"),
            Instr::Bin(op) => f.write_str(op.mnemonic()),
            Instr::Un(op) => f.write_str(op.mnemonic()),
            Instr::Jmp(t) => write!(f, "jmp {t}"),
            Instr::Jz(t) => write!(f, "jz {t}"),
            Instr::Jnz(t) => write!(f, "jnz {t}"),
            Instr::Call(i) => write!(f, "call f{i}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Halt => write!(f, "halt"),
            Instr::Syscall(s) => write!(f, "sys {s:?}"),
            Instr::Checkpoint(site) => write!(f, "ckpt {site:?}"),
            Instr::AtomicBegin => write!(f, "atomic.begin"),
            Instr::AtomicEnd => write!(f, "atomic.end"),
            Instr::TimestampVar(v) => write!(f, "tstamp v{v}"),
            Instr::ExpiresCheck(v) => write!(f, "expchk v{v}"),
            Instr::TimelyCheck => write!(f, "timely"),
            Instr::ExpiresBlockBegin(v, c) => write!(f, "expblk v{v} catch={c}"),
            Instr::ExpiresBlockEnd => write!(f, "expend"),
        }
    }
}

/// A binary ALU or compare operator ([`Instr::Bin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; traps on a zero divisor or `i32::MIN / -1`.
    Div,
    /// Signed remainder; traps on a zero divisor or `i32::MIN % -1`.
    Mod,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left by `rhs` masked to 0–31.
    Shl,
    /// Arithmetic shift right by `rhs` masked to 0–31.
    Shr,
    /// 1 if equal else 0.
    Eq,
    /// 1 if not equal else 0.
    Ne,
    /// 1 if less-than (signed) else 0.
    Lt,
    /// 1 if less-or-equal (signed) else 0.
    Le,
    /// 1 if greater-than (signed) else 0.
    Gt,
    /// 1 if greater-or-equal (signed) else 0.
    Ge,
}

impl BinOp {
    /// Computes `a op b` on i32 words: the one ALU shared by both VM
    /// engines and the optimizer's constant folder.
    ///
    /// # Errors
    ///
    /// `Div` and `Mod` return the trap message on a zero divisor or on
    /// `i32::MIN` divided by `-1`.
    #[inline(always)]
    pub fn apply(self, a: i32, b: i32) -> Result<i32, &'static str> {
        Ok(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b).ok_or("division by zero or overflow")?,
            BinOp::Mod => a.checked_rem(b).ok_or("remainder by zero or overflow")?,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            // `wrapping_sh*` mask the count to its low five bits.
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Eq => i32::from(a == b),
            BinOp::Ne => i32::from(a != b),
            BinOp::Lt => i32::from(a < b),
            BinOp::Le => i32::from(a <= b),
            BinOp::Gt => i32::from(a > b),
            BinOp::Ge => i32::from(a >= b),
        })
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }
}

/// A unary ALU operator ([`Instr::Un`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Bitwise complement.
    BitNot,
    /// Logical NOT: 1 if zero else 0.
    LogNot,
}

impl UnOp {
    /// Computes `op a` on an i32 word (see [`BinOp::apply`]).
    #[inline(always)]
    #[must_use]
    pub fn apply(self, a: i32) -> i32 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::BitNot => !a,
            UnOp::LogNot => i32::from(a == 0),
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::BitNot => "not",
            UnOp::LogNot => "lnot",
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn syscall_names_resolve() {
        assert_eq!(Syscall::from_name("send"), Some(Syscall::Send));
        assert_eq!(Syscall::from_name("nonsense"), None);
        assert_eq!(Syscall::Send.arg_count(), 1);
        assert_eq!(Syscall::TimeMs.arg_count(), 0);
    }

    #[test]
    fn logged_stores_are_bigger_than_plain() {
        assert!(Instr::StoreGlobalLogged(0).encoded_size() > Instr::StoreGlobal(0).encoded_size());
        assert!(Instr::StoreIndLogged.encoded_size() > Instr::StoreInd.encoded_size());
    }

    #[test]
    fn code_target_accessors() {
        let mut j = Instr::Jz(7);
        assert_eq!(j.code_target(), Some(7));
        j.set_code_target(9);
        assert_eq!(j, Instr::Jz(9));
        let mut catch = Instr::ExpiresBlockBegin(2, 5);
        assert_eq!(catch.code_target(), Some(5));
        catch.set_code_target(6);
        assert_eq!(catch, Instr::ExpiresBlockBegin(2, 6));
        let mut add = Instr::Bin(BinOp::Add);
        add.set_code_target(3);
        assert_eq!((add, add.code_target()), (Instr::Bin(BinOp::Add), None));
    }

    #[test]
    fn stack_effects() {
        let no_call = |_| unreachable!("not a call");
        assert_eq!(Instr::Ret.stack_effect(no_call), (1, 0));
        assert_eq!(Instr::Dup.stack_effect(no_call), (1, 2));
        assert_eq!(Instr::Swap.stack_effect(no_call), (2, 2));
        assert_eq!(Instr::TimelyCheck.stack_effect(no_call), (1, 1));
        assert_eq!(Instr::Bin(BinOp::Lt).stack_effect(no_call), (2, 1));
        assert_eq!(Instr::Syscall(Syscall::Send).stack_effect(no_call), (1, 1));
        assert_eq!(Instr::Call(4).stack_effect(|f| f + 1), (5, 1));
    }

    /// The ALU's oracle: every operator on the i32 edge operands, with
    /// the expected values written out by hand.
    #[test]
    fn alu_matches_literal_table() {
        const MIN: i32 = i32::MIN;
        const MAX: i32 = i32::MAX;
        const DIV: Result<i32, &str> = Err("division by zero or overflow");
        const REM: Result<i32, &str> = Err("remainder by zero or overflow");
        #[rustfmt::skip]
        let bin = [
            (BinOp::Add, MAX, 1, Ok(MIN)), (BinOp::Add, MIN, -1, Ok(MAX)),
            (BinOp::Add, MIN, MIN, Ok(0)), (BinOp::Add, -1, 0, Ok(-1)),
            (BinOp::Sub, MIN, 1, Ok(MAX)), (BinOp::Sub, 0, MIN, Ok(MIN)),
            (BinOp::Sub, MAX, -1, Ok(MIN)), (BinOp::Sub, -1, MAX, Ok(MIN)),
            (BinOp::Mul, MIN, -1, Ok(MIN)), (BinOp::Mul, MAX, MAX, Ok(1)),
            (BinOp::Mul, MAX, -1, Ok(-MAX)), (BinOp::Mul, 0, MIN, Ok(0)),
            (BinOp::Div, MIN, -1, DIV), (BinOp::Div, 7, 0, DIV), (BinOp::Div, 0, 0, DIV),
            (BinOp::Div, MIN, 1, Ok(MIN)), (BinOp::Div, MAX, -1, Ok(-MAX)),
            (BinOp::Div, -7, 2, Ok(-3)), (BinOp::Div, -1, MIN, Ok(0)),
            (BinOp::Mod, MIN, -1, REM), (BinOp::Mod, 5, 0, REM),
            (BinOp::Mod, -7, 2, Ok(-1)), (BinOp::Mod, 7, -2, Ok(1)),
            (BinOp::Mod, MIN, MAX, Ok(-1)), (BinOp::Mod, MAX, MIN, Ok(MAX)),
            (BinOp::And, MIN, -1, Ok(MIN)), (BinOp::And, MAX, MIN, Ok(0)),
            (BinOp::And, -1, 0, Ok(0)),
            (BinOp::Or, MIN, MAX, Ok(-1)), (BinOp::Or, 0, 0, Ok(0)),
            (BinOp::Xor, -1, MAX, Ok(MIN)), (BinOp::Xor, MIN, MIN, Ok(0)),
            (BinOp::Shl, 1, 31, Ok(MIN)), (BinOp::Shl, 1, 32, Ok(1)),
            (BinOp::Shl, 1, -1, Ok(MIN)), (BinOp::Shl, -1, 31, Ok(MIN)),
            (BinOp::Shl, MAX, 1, Ok(-2)),
            (BinOp::Shr, MIN, 31, Ok(-1)), (BinOp::Shr, MIN, 32, Ok(MIN)),
            (BinOp::Shr, MIN, -1, Ok(-1)), (BinOp::Shr, MIN, 1, Ok(-0x4000_0000)),
            (BinOp::Shr, MAX, 31, Ok(0)), (BinOp::Shr, -1, 1, Ok(-1)),
            (BinOp::Eq, MIN, MIN, Ok(1)), (BinOp::Eq, MIN, MAX, Ok(0)),
            (BinOp::Ne, 0, -1, Ok(1)), (BinOp::Ne, -1, -1, Ok(0)),
            (BinOp::Lt, MIN, MAX, Ok(1)), (BinOp::Lt, MAX, MIN, Ok(0)),
            (BinOp::Lt, -1, 0, Ok(1)), (BinOp::Lt, 0, 0, Ok(0)),
            (BinOp::Le, -1, 0, Ok(1)), (BinOp::Le, 0, -1, Ok(0)), (BinOp::Le, MIN, MIN, Ok(1)),
            (BinOp::Gt, 0, -1, Ok(1)), (BinOp::Gt, MIN, MAX, Ok(0)), (BinOp::Gt, MAX, MAX, Ok(0)),
            (BinOp::Ge, -1, MIN, Ok(1)), (BinOp::Ge, MIN, -1, Ok(0)), (BinOp::Ge, 0, 0, Ok(1)),
        ];
        for (op, a, b, want) in bin {
            assert_eq!(op.apply(a, b), want, "{op:?}({a}, {b})");
        }
        #[rustfmt::skip]
        let un = [
            (UnOp::Neg, MIN, MIN), (UnOp::Neg, MAX, -MAX), (UnOp::Neg, -1, 1), (UnOp::Neg, 0, 0),
            (UnOp::BitNot, MIN, MAX), (UnOp::BitNot, MAX, MIN), (UnOp::BitNot, -1, 0),
            (UnOp::BitNot, 0, -1),
            (UnOp::LogNot, 0, 1), (UnOp::LogNot, MIN, 0), (UnOp::LogNot, -1, 0),
            (UnOp::LogNot, MAX, 0),
        ];
        for (op, a, want) in un {
            assert_eq!(op.apply(a), want, "{op:?}({a})");
        }
        // Every operator has at least one row.
        assert_eq!(bin.iter().map(|r| r.0).collect::<HashSet<_>>().len(), 16);
        assert_eq!(un.iter().map(|r| r.0).collect::<HashSet<_>>().len(), 3);
    }

    #[test]
    fn operator_mnemonics() {
        let bin = [
            (BinOp::Add, "add"),
            (BinOp::Sub, "sub"),
            (BinOp::Mul, "mul"),
            (BinOp::Div, "div"),
            (BinOp::Mod, "mod"),
            (BinOp::And, "and"),
            (BinOp::Or, "or"),
            (BinOp::Xor, "xor"),
            (BinOp::Shl, "shl"),
            (BinOp::Shr, "shr"),
            (BinOp::Eq, "eq"),
            (BinOp::Ne, "ne"),
            (BinOp::Lt, "lt"),
            (BinOp::Le, "le"),
            (BinOp::Gt, "gt"),
            (BinOp::Ge, "ge"),
        ];
        for (op, text) in bin {
            assert_eq!(Instr::Bin(op).to_string(), text);
        }
        for (op, text) in [
            (UnOp::Neg, "neg"),
            (UnOp::BitNot, "not"),
            (UnOp::LogNot, "lnot"),
        ] {
            assert_eq!(Instr::Un(op).to_string(), text);
        }
    }

    #[test]
    fn display_is_nonempty_for_all_shapes() {
        for i in [
            Instr::Const(1),
            Instr::LoadLocal(0),
            Instr::StoreGlobalLogged(4),
            Instr::Syscall(Syscall::Print),
            Instr::Checkpoint(CkptSite::Auto),
            Instr::ExpiresBlockBegin(0, 3),
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
