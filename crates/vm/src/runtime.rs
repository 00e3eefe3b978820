//! The [`IntermittentRuntime`] trait and the bare (plain C) runtime.

use tics_mcu::{Addr, Region};
use tics_minic::isa::{CkptSite, VarId};
use tics_minic::program::{Instrumentation, Program};

use crate::caps::{PortingEffort, RuntimeCapabilities};
use crate::error::VmError;
use crate::machine::Machine;
use crate::Result;

/// What the machine should do after a (re)boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeAction {
    /// Start from `main` with a fresh stack. `reinit_globals` re-runs
    /// crt0-style initialization of non-`nv` globals.
    Restart {
        /// Whether to re-initialize non-`nv` globals.
        reinit_globals: bool,
    },
    /// The runtime has restored registers (and any needed memory); resume
    /// where they point.
    Restored,
}

/// Why a checkpoint was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// An inserted or manual checkpoint site in the code.
    Site(CkptSite),
    /// The supply's low-voltage interrupt fired.
    Voltage,
}

/// The policy layer between the VM and the MCU: frame placement, store
/// interception, checkpointing, recovery, and time semantics.
///
/// Implementations (the TICS runtime in `tics-core`, the baselines in
/// `tics-baselines`, [`BareRuntime`] here) hold *their persistent state
/// inside simulated FRAM* — a runtime that cached state in host memory
/// would silently survive power failures it should not survive.
///
/// A runtime states only its policy: its [`name`](Self::name), its
/// Table 5 [`capabilities`](Self::capabilities), the
/// [`instrumentation`](Self::instrumentation) pass it executes, what a
/// boot does ([`on_boot`](Self::on_boot)) and what a checkpoint request
/// does ([`checkpoint`](Self::checkpoint)). Everything else is inherited
/// and overridden only where the runtime differs:
///
/// * [`check_program`](Self::check_program) compares the program's
///   instrumentation tag with the runtime's, then applies the runtime's
///   extra [`check_shape`](Self::check_shape) rules (none by default);
/// * [`alloc_frame`](Self::alloc_frame) stacks frames contiguously from
///   the bottom of the [`frame_stack`](Self::frame_stack) region (SRAM by
///   default);
/// * stores, frame frees, atomic regions, interrupts and
///   [`on_stop`](Self::on_stop) are no-ops, and
///   [`next_stop`](Self::next_stop) is never;
/// * the time annotations trap, since only a time-aware runtime can run
///   them;
/// * wire I/O is un-hardened: no [`TxDriver`](crate::driver::TxDriver),
///   and `send` transmits immediately.
pub trait IntermittentRuntime {
    /// Short display name ("TICS", "MementOS", ...).
    fn name(&self) -> &'static str;

    /// The Table 5 capability row for this runtime.
    fn capabilities(&self) -> RuntimeCapabilities;

    /// The instrumentation pass whose output this runtime executes.
    fn instrumentation(&self) -> Instrumentation;

    /// Program shapes the runtime refuses beyond a wrong instrumentation
    /// tag (recursion, pointers, frames larger than a segment, ...).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] naming the unsupported shape.
    fn check_shape(&self, program: &Program) -> Result<()> {
        let _ = program;
        Ok(())
    }

    /// Validates that the program image carries the instrumentation this
    /// runtime expects and has a shape it supports. Called once before
    /// execution.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::IncompatibleInstrumentation`] on a tag
    /// mismatch, else the error of [`IntermittentRuntime::check_shape`].
    fn check_program(&self, program: &Program) -> Result<()> {
        let expected = self.instrumentation();
        if program.instrumentation != expected {
            return Err(VmError::IncompatibleInstrumentation {
                expected: format!("{expected:?}"),
                found: format!("{:?}", program.instrumentation),
            });
        }
        self.check_shape(program)
    }

    /// Returns the runtime to its as-constructed state so it can drive a
    /// recycled machine ([`Machine::reset`]) as if freshly built, keeping
    /// scratch allocations where possible. Runtimes whose entire state is
    /// host-side caches of FRAM structures rebuilt on boot use the
    /// default no-op only if they hold *no* such caches; everything
    /// stateful must override. The reset differential test runs every
    /// runtime through recycle-then-rerun to prove equivalence.
    fn recycle(&mut self) {}

    /// Called at every boot (first boot and after every power failure).
    ///
    /// # Errors
    ///
    /// Propagates memory errors during recovery.
    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction>;

    /// The region this runtime's frames live in; the provided
    /// [`IntermittentRuntime::alloc_frame`] stacks them in it. A runtime
    /// that places frames its own way (TICS's segment array) still
    /// declares the region here. Default: the volatile SRAM.
    ///
    /// # Errors
    ///
    /// Propagates errors from attaching the runtime's FRAM structures.
    fn frame_stack(&mut self, m: &mut Machine) -> Result<Region> {
        Ok(m.mem.layout().sram)
    }

    /// Places a frame of `frame_size` bytes for a call to `fidx` and
    /// returns its base address. `arg_bytes` of arguments will be copied
    /// into the frame body by the VM. The default stacks frames
    /// contiguously from the bottom of
    /// [`IntermittentRuntime::frame_stack`].
    ///
    /// # Errors
    ///
    /// Returns [`VmError::StackOverflow`] when the stack region is
    /// exhausted.
    fn alloc_frame(
        &mut self,
        m: &mut Machine,
        fidx: u16,
        frame_size: u32,
        arg_bytes: u32,
    ) -> Result<Addr> {
        let _ = (fidx, arg_bytes);
        let stack = self.frame_stack(m)?;
        let base = if m.regs.fp == Addr(0) && m.regs.sp == Addr(0) {
            stack.start
        } else {
            m.regs.sp
        };
        if !stack.contains_range(base, frame_size) {
            return Err(VmError::StackOverflow {
                detail: format!("frame stack {stack} exhausted allocating {frame_size} bytes"),
            });
        }
        Ok(base)
    }

    /// The frame at `fp` is being freed (function return).
    ///
    /// # Errors
    ///
    /// Propagates memory errors (e.g. from an enforced checkpoint).
    fn free_frame(&mut self, m: &mut Machine, fp: Addr) -> Result<()> {
        let _ = (m, fp);
        Ok(())
    }

    /// The region frames are stacked in when the provided
    /// [`alloc_frame`](Self::alloc_frame) and
    /// [`free_frame`](Self::free_frame) place and free them, or `None`
    /// when the runtime overrides either. With `Some`, the decoded
    /// engine runs calls and returns inside burst zones as those hooks
    /// would; it asks once per on-period, after
    /// [`on_boot`](Self::on_boot). Default: [`frame_stack`](Self::frame_stack),
    /// or `None` if that fails (the reference path then reports it).
    fn stacked_frames(&mut self, m: &mut Machine) -> Option<Region> {
        self.frame_stack(m).ok()
    }

    /// An instrumented store is about to write `len` bytes at `addr`
    /// (the old value is still in memory). TICS classifies the address
    /// and undo-logs it, the task kernels privatize task-shared writes;
    /// the default ignores it.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from logging.
    fn logged_store(&mut self, m: &mut Machine, addr: Addr, len: u32) -> Result<()> {
        let _ = (m, addr, len);
        Ok(())
    }

    /// A checkpoint site was reached (or the executor's voltage warning
    /// fired). The runtime decides whether to actually commit one. The
    /// executor defers every request while the runtime's
    /// [`tx_driver`](Self::tx_driver) has a transaction open, so no
    /// request arrives inside one.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from committing.
    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()>;

    /// The first cycle at which [`on_stop`](Self::on_stop) may act
    /// (default: never). The decoded engine calls `on_stop` after the
    /// first instruction that *ends* at or after it, never before the next
    /// instruction ends, and asks again after every runtime callback and
    /// `on_stop`; plain instructions must not move it.
    fn next_stop(&mut self, m: &mut Machine) -> u64 {
        let _ = m;
        u64::MAX
    }

    /// Timer-driven checkpoints and expiration timers; a no-op before
    /// [`next_stop`](Self::next_stop). The reference engine calls it after
    /// every instruction: the oracle for the stop.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_stop(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// A power failure just wiped volatile state; drop any volatile
    /// mirrors the runtime keeps outside simulated memory.
    fn on_power_failure(&mut self, m: &mut Machine) {
        let _ = m;
    }

    /// Entering an interrupt service routine.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_isr_enter(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Returned from an interrupt service routine.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn on_isr_exit(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    // ---- time semantics (TICS annotations) ----

    /// `@=` executed: record "now" as the timestamp of annotated `var`.
    ///
    /// # Errors
    ///
    /// Default: time annotations need a time-aware runtime.
    fn timestamp_var(&mut self, m: &mut Machine, var: VarId) -> Result<()> {
        let _ = (m, var);
        Err(time_unaware(self.name()))
    }

    /// `@expires` guard: is `var` still fresh?
    ///
    /// # Errors
    ///
    /// Default: unsupported (see [`IntermittentRuntime::timestamp_var`]).
    fn expires_check(&mut self, m: &mut Machine, var: VarId) -> Result<bool> {
        let _ = (m, var);
        Err(time_unaware(self.name()))
    }

    /// `@timely(deadline_ms)`: is now strictly before the deadline?
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn timely_check(&mut self, m: &mut Machine, deadline_ms: i32) -> Result<bool> {
        let _ = (m, deadline_ms);
        Err(time_unaware(self.name()))
    }

    /// Automatic checkpoints disabled (atomic region entered).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn atomic_begin(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Automatic checkpoints re-enabled.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    fn atomic_end(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Ok(())
    }

    /// Enter an `@expires`/`catch` block for `var`; `catch_pc` is the
    /// (flattened) handler address the runtime jumps to on expiration.
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn expires_block_begin(&mut self, m: &mut Machine, var: VarId, catch_pc: u32) -> Result<()> {
        let _ = (m, var, catch_pc);
        Err(time_unaware(self.name()))
    }

    /// Leave an `@expires`/`catch` block normally.
    ///
    /// # Errors
    ///
    /// Default: unsupported.
    fn expires_block_end(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        Err(time_unaware(self.name()))
    }

    /// The runtime's transactional peripheral driver, if it hardens wire
    /// I/O with the FRAM journal ([`crate::driver::TxDriver`]). The
    /// executor uses this to reconcile in-flight transactions at boot, to
    /// route `tx_begin`/`tx_commit`, and to defer checkpoint requests while
    /// a transaction is open. The default (`None`) is the un-hardened
    /// behavior: `tx_begin` always proceeds with attempt 0 and nothing is
    /// journaled — exactly what legacy code does today.
    fn tx_driver(&mut self) -> Option<&mut crate::driver::TxDriver> {
        None
    }

    /// A `send(value)` is about to transmit. Return `true` if the
    /// runtime *virtualizes* the I/O — buffering it until the enclosing
    /// state is committed, so a rollback cannot leave a transmission the
    /// program later un-executes (the paper's §7 "virtualizing the I/O
    /// interface across power failures"). Returning `false` (the
    /// default) lets the radio fire immediately.
    ///
    /// # Errors
    ///
    /// Propagates memory errors from buffering.
    fn io_send(&mut self, m: &mut Machine, value: i32) -> Result<bool> {
        let _ = (m, value);
        Ok(false)
    }
}

/// The trap every time annotation raises under a time-blind runtime.
fn time_unaware(runtime: &str) -> VmError {
    VmError::Trap(format!(
        "{runtime}: time annotations require a time-aware runtime"
    ))
}

/// The "plain C" runtime: a continuously-powered program's view of the
/// world. Frames live in volatile SRAM; there are no checkpoints; every
/// reboot restarts `main` and re-initializes non-`nv` globals.
///
/// Running legacy code under [`BareRuntime`] on intermittent power
/// produces exactly the paper's Table 1 failure mode: `nv` state mutated
/// before the failure survives, everything else restarts — inconsistent
/// mixes included.
#[derive(Debug, Clone, Default)]
pub struct BareRuntime;

impl BareRuntime {
    /// Creates a bare runtime.
    #[must_use]
    pub fn new() -> BareRuntime {
        BareRuntime
    }
}

impl IntermittentRuntime for BareRuntime {
    fn name(&self) -> &'static str {
        "plain-C"
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: true,
            recursion_support: true,
            scalable: true,
            timely_execution: false,
            // Unprotected legacy code: nv state survives a reboot while
            // volatile state restarts — the one row Table 5 does not
            // claim consistency for.
            memory_consistency: false,
            porting_effort: PortingEffort::None,
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::None
    }

    fn on_boot(&mut self, _m: &mut Machine) -> Result<ResumeAction> {
        Ok(ResumeAction::Restart {
            reinit_globals: true,
        })
    }

    fn checkpoint(&mut self, _m: &mut Machine, _kind: CheckpointKind) -> Result<()> {
        Ok(())
    }
}
