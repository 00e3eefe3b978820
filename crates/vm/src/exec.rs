//! The instruction interpreter and the intermittent executor.
//!
//! Two dispatch engines share this module:
//!
//! * the **reference** interpreter — [`step`], a per-instruction `match`
//!   over [`Instr`] with fully checked stack accesses; and
//! * the **decoded** interpreter — one loop, `run_burst`, over the
//!   pre-lowered [`DecodedProgram`] op stream, with elided stack-bound
//!   checks in verified functions. Every period runs fused
//!   superinstructions in burst zones on a [`WordBurst`]; each plain op
//!   has one body, `exec_op`. The runtime acts only at its
//!   [`IntermittentRuntime::next_stop`] and the ISR fires only at
//!   [`Machine::isr_stop`].
//!
//! The two are bit-exact: same simulated memory traffic, cycles, span
//! attribution, traps, and trace events (`tests/differential_exec.rs`
//! and `tests/decode_roundtrip.rs` enforce this). The decoded engine is
//! the default; the reference engine survives as the differential-testing
//! oracle for dispatch, memory traffic, trap points and runtime stops
//! (it polls the runtime after every instruction), selectable per
//! executor or via `TICS_VM_ENGINE=reference`. Both compute through the
//! one ALU, [`BinOp::apply`](tics_minic::isa::BinOp::apply).

use std::sync::Arc;

use tics_energy::PowerSupply;
use tics_mcu::periph::{I2C_PHASE_CYCLES, UART_BYTE_CYCLES};
use tics_mcu::{Addr, Registers, WordBurst};
use tics_minic::isa::{Instr, Syscall};
use tics_minic::program::FRAME_HEADER_BYTES;
use tics_trace::{I2cPhase, TraceEvent};

use crate::decoded::{DecodedProgram, Op, DEPTH_UNKNOWN};
use crate::error::VmError;
use crate::machine::Machine;
use crate::runtime::{CheckpointKind, IntermittentRuntime, ResumeAction};
use crate::Result;

/// Which interpreter drives the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchEngine {
    /// The decoded fast-dispatch interpreter (default).
    #[default]
    Decoded,
    /// The original per-instruction reference interpreter, kept as the
    /// differential-testing oracle.
    Reference,
}

impl DispatchEngine {
    /// Engine selection from the `TICS_VM_ENGINE` environment variable:
    /// unset or `decoded` picks the decoded engine, `reference` or `ref`
    /// the oracle. Read once per [`Executor`] construction.
    ///
    /// # Panics
    ///
    /// On any other value: a mistyped name must not silently run the
    /// decoded engine, or a differential run would compare it with
    /// itself. Binaries check first with [`DispatchEngine::try_from_env`].
    #[must_use]
    pub fn from_env() -> DispatchEngine {
        DispatchEngine::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DispatchEngine::from_env`], returning an unaccepted value as an
    /// error.
    ///
    /// # Errors
    ///
    /// One line naming the variable and the value it holds.
    pub fn try_from_env() -> std::result::Result<DispatchEngine, String> {
        let Some(v) = std::env::var_os("TICS_VM_ENGINE") else {
            return Ok(DispatchEngine::Decoded);
        };
        match v.to_str() {
            Some("decoded") => Ok(DispatchEngine::Decoded),
            Some("reference" | "ref") => Ok(DispatchEngine::Reference),
            _ => Err(format!(
                "TICS_VM_ENGINE must be `decoded` or `reference`, got {v:?}"
            )),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// `main` returned with this exit code.
    Finished(i32),
    /// The power supply produced no more periods (experiment window
    /// ended).
    OutOfEnergy,
    /// The executor's total time budget ran out (used to bound infinite
    /// sense-loops).
    BudgetExhausted,
    /// The system made no forward progress for the configured number of
    /// consecutive boots — the paper's *system starvation*.
    Starved {
        /// Boots observed without a new checkpoint or completion.
        boots: u64,
    },
}

impl RunOutcome {
    /// The exit code, if the program finished.
    #[must_use]
    pub fn exit_code(self) -> Option<i32> {
        match self {
            RunOutcome::Finished(c) => Some(c),
            _ => None,
        }
    }
}

/// Drives a [`Machine`] + [`IntermittentRuntime`] pair through a
/// [`PowerSupply`], injecting power failures at on-period boundaries.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Stop after this much total on-time (µs). Bounds infinite loops.
    pub max_total_us: u64,
    /// Declare starvation after this many consecutive boots with no new
    /// checkpoint and no program completion. `u64::MAX` disables.
    pub starvation_boots: u64,
    /// Forward-progress guard: after this many consecutive boots with no
    /// new checkpoint, no new externally visible event, and no
    /// completion, `run` returns [`VmError::NoForwardProgress`] instead
    /// of spinning forever on an infinite supply. Unlike
    /// [`Executor::starvation_boots`] (a measured outcome for runtimes
    /// that checkpoint), this is a harness-level diagnosis: it fires only
    /// when *nothing at all* is happening. `u64::MAX` disables.
    pub progress_guard_boots: u64,
    /// Hardware-assisted checkpointing (§4's policy ii): when set, a
    /// low-voltage comparator interrupt fires this many µs before the
    /// supply dies, giving the runtime one [`CheckpointKind::Voltage`]
    /// opportunity per on-period. `None` models a board without the
    /// comparator.
    pub voltage_warning_us: Option<u64>,
    /// Which interpreter to dispatch with. Defaults from
    /// [`DispatchEngine::from_env`].
    pub engine: DispatchEngine,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            max_total_us: u64::MAX / 4,
            starvation_boots: u64::MAX,
            progress_guard_boots: u64::MAX,
            voltage_warning_us: None,
            engine: DispatchEngine::from_env(),
        }
    }
}

impl Executor {
    /// An executor with an effectively unlimited time budget.
    #[must_use]
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Caps the total on-time (µs of cycles).
    #[must_use]
    pub fn with_time_budget(mut self, us: u64) -> Executor {
        self.max_total_us = us;
        self
    }

    /// Enables starvation detection after `boots` unproductive boots.
    #[must_use]
    pub fn with_starvation_detection(mut self, boots: u64) -> Executor {
        self.starvation_boots = boots;
        self
    }

    /// Enables the forward-progress guard after `boots` consecutive
    /// boots with no checkpoint, no visible event, and no completion.
    #[must_use]
    pub fn with_progress_guard(mut self, boots: u64) -> Executor {
        self.progress_guard_boots = boots;
        self
    }

    /// Enables the low-voltage comparator interrupt `margin_us` before
    /// each power failure.
    #[must_use]
    pub fn with_voltage_warning(mut self, margin_us: u64) -> Executor {
        self.voltage_warning_us = Some(margin_us);
        self
    }

    /// Selects the dispatch engine explicitly (overriding the
    /// `TICS_VM_ENGINE` default).
    #[must_use]
    pub fn with_engine(mut self, engine: DispatchEngine) -> Executor {
        self.engine = engine;
        self
    }

    /// Runs to completion, budget exhaustion, supply exhaustion, or
    /// starvation.
    ///
    /// # Errors
    ///
    /// Propagates traps, stack overflows, and memory errors.
    pub fn run(
        &self,
        m: &mut Machine,
        rt: &mut dyn IntermittentRuntime,
        supply: &mut dyn PowerSupply,
    ) -> Result<RunOutcome> {
        rt.check_program(&m.loaded().program)?;
        let mut unproductive_boots = 0u64;
        let mut stalled_boots = 0u64;
        loop {
            let Some(period) = supply.next_period() else {
                return Ok(RunOutcome::OutOfEnergy);
            };
            m.emit(TraceEvent::Boot);
            let ckpts_at_boot = m.stats().checkpoints;
            // Progress is counted on the trace's incremental fold — the
            // same `is_externally_visible` predicate the fault oracle
            // replays, so the two can never disagree.
            let events_at_boot = m.trace().visible_events();
            // Boot-time recovery draws from the same energy budget as the
            // rest of the period; a restore that exceeds it dies mid-way
            // (the paper's starvation-by-recovery-cost).
            let period_start = m.cycles();
            let deadline = period_start.saturating_add(period.on_us);
            m.set_period_deadline(deadline);
            match rt.on_boot(m)? {
                ResumeAction::Restart { reinit_globals } => {
                    if reinit_globals {
                        m.init_globals(false)?;
                    }
                    m.start_main(rt)?;
                }
                ResumeAction::Restored => {}
            }
            // Reconcile the peripheral transaction journal after boot
            // recovery (for runtimes that harden wire I/O): in-flight
            // descriptors from the previous life become retryable (with
            // backoff charged against this period) or poisoned. One call
            // site covers every runtime under both dispatch engines.
            if let Some(d) = rt.tx_driver() {
                d.reconcile(m)?;
            }
            // Engine choice is fixed per on-period, *after* boot/restore
            // resolved the register file: a restore from a corrupted
            // (un-CRC'd) checkpoint bank can leave registers violating the
            // decoded engine's verified-depth invariant, in which case the
            // period falls back to the reference interpreter — a dispatch
            // decision only, bit-exact either way.
            let mode = self.period_mode(m);
            let mut voltage_fired = false;
            let warn_at = self
                .voltage_warning_us
                .map(|margin| deadline.saturating_sub(margin));
            loop {
                if m.is_halted() {
                    let code = m.exit_code().ok_or_else(|| {
                        VmError::Trap(format!(
                            "machine halted without an exit code under {} at cycle {}",
                            rt.name(),
                            m.cycles()
                        ))
                    })?;
                    return Ok(RunOutcome::Finished(code));
                }
                if m.cycles() >= deadline {
                    break;
                }
                if m.cycles() >= self.max_total_us {
                    return Ok(RunOutcome::BudgetExhausted);
                }
                let warned = warn_at.is_some_and(|w| !voltage_fired && m.cycles() >= w);
                if warned {
                    voltage_fired = true;
                    request_checkpoint(m, rt, CheckpointKind::Voltage)?;
                }
                match mode {
                    PeriodMode::Reference => step(m, rt)?,
                    // The reference checks, then steps: the instruction
                    // after the warning runs even when the checkpoint ran
                    // past the deadline (its stores tear). One reference
                    // step keeps that exact.
                    PeriodMode::Decoded(_) if warned => step(m, rt)?,
                    PeriodMode::Decoded(ref decoded) => {
                        // The decoded loop runs until the nearest stop
                        // boundary; the outer checks above are idempotent
                        // and disambiguate which one fired.
                        let mut stop_at = deadline.min(self.max_total_us);
                        if let Some(w) = warn_at {
                            if !voltage_fired {
                                stop_at = stop_at.min(w);
                            }
                        }
                        run_burst(m, rt, decoded, stop_at)?;
                    }
                }
            }
            // Power failure at the end of the on-period.
            m.power_failure(period.off_us);
            rt.on_power_failure(m);
            if m.stats().checkpoints == ckpts_at_boot {
                unproductive_boots += 1;
                if unproductive_boots >= self.starvation_boots {
                    return Ok(RunOutcome::Starved {
                        boots: unproductive_boots,
                    });
                }
            } else {
                unproductive_boots = 0;
            }
            // The progress guard is stricter about what counts as stalled:
            // a reboot that produced *any* visible event is still moving,
            // even without a checkpoint (plain C re-executing from main).
            if m.stats().checkpoints == ckpts_at_boot
                && m.trace().visible_events() == events_at_boot
            {
                stalled_boots += 1;
                if stalled_boots >= self.progress_guard_boots {
                    return Err(VmError::NoForwardProgress {
                        boots: stalled_boots,
                        runtime: rt.name().to_string(),
                    });
                }
            } else {
                stalled_boots = 0;
            }
        }
    }
}

/// How one on-period is dispatched. Fixed at boot; see
/// [`Executor::period_mode`].
enum PeriodMode {
    /// The original interpreter (engine override or failed boot check).
    Reference,
    /// The decoded loop, [`run_burst`].
    Decoded(Arc<DecodedProgram>),
}

impl Executor {
    /// Picks the dispatch mode for the period that just booted.
    fn period_mode(&self, m: &Machine) -> PeriodMode {
        if self.engine == DispatchEngine::Reference || !boot_state_consistent(m) {
            return PeriodMode::Reference;
        }
        PeriodMode::Decoded(m.loaded().decoded.clone())
    }
}

/// Checks that the just-booted register file is consistent with the
/// verifier's depth map: `pc` in range and, when the owning function was
/// verified at a known depth, `sp` exactly where that depth puts it.
/// A mismatch means a restore produced a state the reference interpreter
/// would police with its per-access checks (e.g. a corrupted checkpoint
/// bank that passed no CRC) — the period then runs on the reference
/// engine so behavior stays identical.
fn boot_state_consistent(m: &Machine) -> bool {
    let loaded = m.loaded();
    let dp = &loaded.decoded;
    let pc = m.regs.pc as usize;
    let Some(&fi) = loaded.owner.get(pc) else {
        // Out-of-range pc traps with the same message in both engines.
        return true;
    };
    if !dp.verified[fi as usize] {
        // Unverified functions are all-Ref: reference semantics anyway.
        return true;
    }
    let depth = dp.depths[pc];
    if depth == DEPTH_UNKNOWN {
        return false;
    }
    let f = &loaded.program.functions[fi as usize];
    let operand_base = m
        .regs
        .fp
        .offset(FRAME_HEADER_BYTES + f.arg_bytes() + u32::from(f.locals_bytes));
    m.regs.sp.raw() == operand_base.raw().wrapping_add(4 * depth as u32)
}

/// Executes one instruction between the ISR poll and the runtime poll:
/// the reference engine calls [`IntermittentRuntime::on_stop`] after
/// every instruction.
///
/// # Errors
///
/// Propagates traps (divide by zero, stack under/overflow), stack
/// overflows from frame allocation, and memory errors.
pub fn step(m: &mut Machine, rt: &mut dyn IntermittentRuntime) -> Result<()> {
    m.maybe_fire_isr(rt)?;
    step_after_isr(m, rt)?;
    rt.on_stop(m)
}

/// The reference interpreter body: fetch and dispatch — everything in
/// [`step`] but its polls (the decoded loop fires the ISR and calls the
/// runtime at their stops).
fn step_after_isr(m: &mut Machine, rt: &mut dyn IntermittentRuntime) -> Result<()> {
    let pc = m.regs.pc;
    let instr = *m
        .loaded()
        .code
        .get(pc as usize)
        .ok_or_else(|| VmError::pc_out_of_range(pc))?;
    m.regs.pc = pc + 1;
    m.stats_mut().instructions += 1;
    let base = m.mem.costs().instr_base;
    m.mem.add_cycles(base);

    match instr {
        Instr::Const(v) => m.push(v)?,
        Instr::LoadLocal(off) => {
            let a = Machine::frame_body(m.regs.fp).offset(u32::from(off));
            let v = m.mem.read_i32(a)?;
            m.push(v)?;
        }
        Instr::StoreLocal(off) => {
            let v = m.pop()?;
            let a = Machine::frame_body(m.regs.fp).offset(u32::from(off));
            m.mem.write_i32(a, v)?;
        }
        Instr::AddrLocal(off) => {
            let a = Machine::frame_body(m.regs.fp).offset(u32::from(off));
            m.push(a.raw() as i32)?;
        }
        Instr::LoadGlobal(off) => {
            let a = m.global_addr(off);
            let v = m.mem.read_i32(a)?;
            m.push(v)?;
        }
        Instr::StoreGlobal(off) => {
            let v = m.pop()?;
            let a = m.global_addr(off);
            m.mem.write_i32(a, v)?;
        }
        Instr::StoreGlobalLogged(off) => {
            // The runtime may take a *forced* checkpoint inside
            // `logged_store` (undo log full). Point pc back at this
            // instruction while it runs so a restore re-executes the
            // whole store; the operand stack is still intact here.
            let next = m.regs.pc;
            m.regs.pc = pc;
            let a = m.global_addr(off);
            rt.logged_store(m, a, 4)?;
            m.regs.pc = next;
            let v = m.pop()?;
            m.mem.write_i32(a, v)?;
        }
        Instr::AddrGlobal(off) => {
            let a = m.global_addr(off);
            m.push(a.raw() as i32)?;
        }
        Instr::LoadInd => {
            let a = Addr(m.pop()? as u32);
            let v = m.mem.read_i32(a)?;
            m.push(v)?;
        }
        Instr::StoreInd => {
            let v = m.pop()?;
            let a = Addr(m.pop()? as u32);
            m.mem.write_i32(a, v)?;
        }
        Instr::StoreIndLogged => {
            // See StoreGlobalLogged: keep the operand stack intact and pc
            // on this instruction while the runtime may checkpoint.
            let next = m.regs.pc;
            m.regs.pc = pc;
            let a = Addr(m.mem.peek_word(Addr(m.regs.sp.raw() - 8))?);
            rt.logged_store(m, a, 4)?;
            m.regs.pc = next;
            let v = m.pop()?;
            let a2 = Addr(m.pop()? as u32);
            debug_assert_eq!(a, a2);
            m.mem.write_i32(a2, v)?;
        }
        Instr::Dup => {
            let v = m.peek_top()?;
            m.push(v)?;
        }
        Instr::Pop => {
            m.pop()?;
        }
        Instr::Swap => {
            let a = m.pop()?;
            let b = m.pop()?;
            m.push(a)?;
            m.push(b)?;
        }
        Instr::Bin(op) => {
            let b = m.pop()?;
            let a = m.pop()?;
            let r = op.apply(a, b).map_err(|e| VmError::Trap(e.into()))?;
            m.push(r)?;
        }
        Instr::Un(op) => {
            let a = m.pop()?;
            m.push(op.apply(a))?;
        }
        Instr::Jmp(t) => m.regs.pc = t,
        Instr::Jz(t) => {
            if m.pop()? == 0 {
                m.regs.pc = t;
            }
        }
        Instr::Jnz(t) => {
            if m.pop()? != 0 {
                m.regs.pc = t;
            }
        }
        Instr::Call(fidx) => {
            let ret = m.regs.pc;
            m.call_function(rt, fidx, ret)?;
        }
        Instr::Ret => m.do_return(rt)?,
        Instr::Halt => {
            let f = m.loaded().function_at(pc)?.name.clone();
            return Err(VmError::Trap(format!("fell off the end of `{f}`")));
        }
        Instr::Syscall(Syscall::Alloc) => {
            // Like the logged stores: the bump-pointer log may force a
            // checkpoint, so keep pc on this instruction and the argument
            // on the operand stack until the allocation is durable.
            m.mem.add_cycles(m.mem.costs().syscall_base);
            let next = m.regs.pc;
            m.regs.pc = pc;
            let bytes = m.peek_top()? as u32;
            let addr = m.heap_alloc(rt, bytes)?;
            m.regs.pc = next;
            m.pop()?;
            m.push(addr as i32)?;
        }
        Instr::Syscall(sys) => do_syscall(m, rt, sys)?,
        Instr::Checkpoint(site) => request_checkpoint(m, rt, CheckpointKind::Site(site))?,
        Instr::AtomicBegin => rt.atomic_begin(m)?,
        Instr::AtomicEnd => rt.atomic_end(m)?,
        Instr::TimestampVar(v) => rt.timestamp_var(m, v)?,
        Instr::ExpiresCheck(v) => {
            let fresh = rt.expires_check(m, v)?;
            if !fresh {
                m.emit(TraceEvent::ExpireDiscard);
            }
            m.push(i32::from(fresh))?;
        }
        Instr::TimelyCheck => {
            let deadline_ms = m.pop()?;
            let ok = rt.timely_check(m, deadline_ms)?;
            if !ok {
                m.emit(TraceEvent::TimelyMiss);
            }
            m.push(i32::from(ok))?;
        }
        Instr::ExpiresBlockBegin(v, catch_pc) => rt.expires_block_begin(m, v, catch_pc)?,
        Instr::ExpiresBlockEnd => rt.expires_block_end(m)?,
    }

    Ok(())
}

/// Hands a checkpoint request to the runtime, unless its transaction
/// driver has a transaction open: replay from a checkpoint inside one
/// would re-drive wire bytes under the same attempt number, so the
/// request is deferred to the next one outside it.
fn request_checkpoint(
    m: &mut Machine,
    rt: &mut dyn IntermittentRuntime,
    kind: CheckpointKind,
) -> Result<()> {
    if rt.tx_driver().is_some_and(|d| d.in_txn()) {
        return Ok(());
    }
    rt.checkpoint(m, kind)
}

fn do_syscall(m: &mut Machine, rt: &mut dyn IntermittentRuntime, sys: Syscall) -> Result<()> {
    let cost = m.mem.costs().syscall_base;
    m.mem.add_cycles(cost);
    match sys {
        Syscall::Sample | Syscall::SampleAccel | Syscall::SampleMoisture | Syscall::SampleTemp => {
            let v = m.next_sensor();
            m.push(v)?;
        }
        Syscall::Send => {
            let v = m.pop()?;
            // A virtualizing runtime buffers the transmission until its
            // state commits; otherwise the radio fires immediately.
            if !rt.io_send(m, v)? {
                m.record_send(v);
            }
            m.push(0)?;
        }
        Syscall::TimeMs => {
            let t = (m.now().as_micros() / 1_000) as i32;
            m.push(t)?;
        }
        Syscall::TimeUs => {
            let t = (m.now().as_micros() & 0x7FFF_FFFF) as i32;
            m.push(t)?;
        }
        Syscall::Led => {
            let v = m.pop()?;
            m.emit(TraceEvent::Led { value: v });
            m.push(0)?;
        }
        Syscall::Rand => {
            let v = m.rand16();
            m.push(v)?;
        }
        Syscall::Mark => {
            let id = m.pop()?;
            m.emit(TraceEvent::Mark { id });
            m.push(0)?;
        }
        Syscall::Print => {
            let v = m.pop()?;
            m.emit(TraceEvent::Print { value: v });
            m.push(0)?;
        }
        Syscall::CheckpointNow => {
            // Push the result *before* committing: the checkpoint must
            // capture the post-syscall operand stack, since a restore
            // resumes at the next instruction.
            m.push(0)?;
            request_checkpoint(
                m,
                rt,
                CheckpointKind::Site(tics_minic::isa::CkptSite::Manual),
            )?;
        }
        // ---- wire peripherals ----
        //
        // Wire traffic is charged with `charge_atomic`: a byte or bus
        // phase whose cycles cross the period deadline is *torn* — the
        // device saw a partial symbol. Torn traffic still reaches the
        // wire log (and the trace: it left the pin), but devices NACK or
        // garble it. Both engines route here via `Op::Ref`, so the wire
        // behavior is bit-exact by construction.
        Syscall::UartTx => {
            let byte = (m.pop()? & 0xFF) as u8;
            let torn = !m.charge_atomic(UART_BYTE_CYCLES);
            let at = m.true_now_us();
            m.periph.uart.tx(byte, torn, at);
            m.emit(TraceEvent::UartTx { byte, torn });
            m.push(i32::from(!torn))?;
        }
        Syscall::UartRx => {
            let byte = m.periph.uart.rx();
            m.emit(TraceEvent::UartRx { byte });
            m.push(byte)?;
        }
        Syscall::I2cStart => {
            let addr = (m.pop()? & 0x7F) as u8;
            let torn = !m.charge_atomic(I2C_PHASE_CYCLES);
            let at = m.true_now_us();
            let ack = m.periph.i2c.start(addr, torn, at);
            m.emit(TraceEvent::I2cOp {
                op: I2cPhase::Start,
                value: addr,
                ack,
            });
            m.push(i32::from(ack))?;
        }
        Syscall::I2cWrite => {
            let byte = (m.pop()? & 0xFF) as u8;
            let torn = !m.charge_atomic(I2C_PHASE_CYCLES);
            let at = m.true_now_us();
            let ack = m.periph.i2c.write(byte, torn, at);
            m.emit(TraceEvent::I2cOp {
                op: I2cPhase::Write,
                value: byte,
                ack,
            });
            m.push(i32::from(ack))?;
        }
        Syscall::I2cRead => {
            let torn = !m.charge_atomic(I2C_PHASE_CYCLES);
            let at = m.true_now_us();
            let r = m.periph.i2c.read(torn, at);
            m.emit(TraceEvent::I2cOp {
                op: I2cPhase::Read,
                value: r.unwrap_or(0xFF),
                ack: r.is_some(),
            });
            m.push(r.map_or(-1, i32::from))?;
        }
        Syscall::I2cStop => {
            let torn = !m.charge_atomic(I2C_PHASE_CYCLES);
            let at = m.true_now_us();
            let ok = m.periph.i2c.stop(torn, at);
            m.emit(TraceEvent::I2cOp {
                op: I2cPhase::Stop,
                value: 0,
                ack: ok,
            });
            m.push(i32::from(ok))?;
        }
        Syscall::I2cReset => {
            m.mem.add_cycles(I2C_PHASE_CYCLES);
            let at = m.true_now_us();
            let ok = m.periph.i2c.reset(at);
            m.emit(TraceEvent::I2cOp {
                op: I2cPhase::Reset,
                value: 0,
                ack: ok,
            });
            m.push(i32::from(ok))?;
        }
        // ---- transactional driver ----
        //
        // Without a driver (`tx_driver() == None`, the naive control),
        // `tx_begin` always answers "proceed, attempt 0" and `tx_commit`
        // journals nothing — legacy code's exposure to torn-wire replay.
        Syscall::TxBegin => {
            let id = m.pop()? as u32;
            let r = match rt.tx_driver() {
                Some(d) => d.begin(m, id)?,
                None => 0,
            };
            m.push(r)?;
        }
        Syscall::TxCommit => {
            let id = m.pop()? as u32;
            if let Some(d) = rt.tx_driver() {
                d.commit(m, id)?;
            }
            m.push(0)?;
        }
        Syscall::Alloc => unreachable!("Alloc is handled in step() for checkpoint safety"),
    }
    Ok(())
}

// ---- decoded dispatch ----
//
// Everything below must stay bit-exact with the reference interpreter:
// same simulated memory operations in the same order, same cycle charges
// and span attribution, same trap points with the machine in the same
// state. The only things removed are host-side costs — the per-push
// `function_at` bound checks (proven unnecessary by the decoder's depth
// verification), the byte-range memory form (replaced by the
// single-word form), and per-instruction dispatch (fused away in bursts).

/// The decoded loop: dispatches decoded ops until a stop boundary —
/// period deadline, voltage warning, time budget — or a halt via a
/// `Ref` op. `Ref` ops (calls, returns, syscalls, runtime-mediated
/// instructions, and everything in unverified functions) run the
/// reference body. Two more stops act exactly where the reference
/// [`step`] polls:
///
/// * the ISR fires before the first op that starts at or after
///   [`Machine::isr_stop`], which is read again after every firing and
///   every `Ref` op (only those change the ISR state);
/// * the runtime acts after the first op that ends at or after its
///   [`next_stop`](IntermittentRuntime::next_stop), which is read again
///   after every `Ref` op, ISR firing and action — even when the period
///   deadline falls on the same cycle.
///
/// Non-`Ref` stretches of `dp.ops` execute as a *burst zone* that ends
/// at the nearest stop. A zone's state is local to this function:
/// [`fast_zone`] and [`exec_op`] inline here, the [`WordBurst`] is a
/// local, and so is a copy of the registers, taken when the zone opens
/// and written back at every exit (stop, `Ref` op, trap), together
/// with the zone's cycle, traffic and instruction counts. The machine
/// state at every observable point is therefore identical to the
/// reference interpreter's. The frame is resolved once per zone: a
/// zone never leaves its function, so `fp` and the frame's region are
/// fixed. A frame that does not lie inside one region (only corrupted
/// state produces one) opens no zone; its pc runs one reference step
/// and a runtime poll, as a `Ref` op does.
fn run_burst(
    m: &mut Machine,
    rt: &mut dyn IntermittentRuntime,
    dp: &DecodedProgram,
    stop_at: u64,
) -> Result<()> {
    let data_base = m.data_base().raw();
    let mut rt_stop = runtime_stop(m, rt);
    let mut isr_stop = m.isr_stop();
    loop {
        if m.cycles() >= stop_at {
            return Ok(());
        }
        if m.cycles() >= isr_stop {
            m.maybe_fire_isr(rt)?;
            isr_stop = m.isr_stop();
            rt_stop = runtime_stop(m, rt);
        }
        let pc = m.regs.pc;
        let Some(&op) = dp.ops.get(pc as usize) else {
            return Err(VmError::pc_out_of_range(pc));
        };
        if !matches!(op, Op::Ref) {
            let zone_stop = stop_at.min(rt_stop).min(isr_stop);
            if let Some(done) = run_zone(m, dp, data_base, zone_stop) {
                done?;
                if m.cycles() >= rt_stop {
                    rt_stop = poll_runtime(m, rt)?;
                }
                continue;
            }
        }
        step_after_isr(m, rt)?;
        rt_stop = poll_runtime(m, rt)?;
        isr_stop = m.isr_stop();
        if m.is_halted() {
            return Ok(());
        }
    }
}

/// The most word accesses one plain op makes (`Swap`: two pops, two
/// pushes), plus one: the bound [`WordBurst::cut_in_reach`] applies to
/// a zone's last op.
const ZONE_OP_WORDS: u64 = 5;

/// Opens a burst zone at the machine's pc, which holds a plain or fused
/// op, runs it to `zone_stop` and folds its state back into the
/// machine. Returns `None`, touching nothing, when the frame does not
/// lie in one region.
///
/// A zone that cannot reach the armed power cut runs the
/// `fast_zone::<false>` instance, whose stores skip the torn-store
/// test. That is every zone but the few that end near a period
/// deadline.
///
/// Optimized builds inline this, [`fast_zone`] and [`exec_op`] into
/// [`run_burst`]: no call takes the address of the view or of the
/// registers, so they stay in registers. Debug builds do not: there
/// the inlined op copies only multiply the stack frame, to megabytes.
#[cfg_attr(not(debug_assertions), inline(always))]
fn run_zone(
    m: &mut Machine,
    dp: &DecodedProgram,
    data_base: u32,
    zone_stop: u64,
) -> Option<Result<()>> {
    let frame_len = m.loaded().function_at(m.regs.pc).ok()?.frame_size();
    let mut bm = m.mem.word_burst(m.regs.fp, frame_len)?;
    let mut regs = ZoneRegs::open(&m.regs);
    let mut instr = 0u64;
    let res = if bm.cut_in_reach(zone_stop, ZONE_OP_WORDS) {
        fast_zone::<true>(&mut bm, &mut regs, dp, data_base, zone_stop, &mut instr)
    } else {
        fast_zone::<false>(&mut bm, &mut regs, dp, data_base, zone_stop, &mut instr)
    };
    bm.commit();
    regs.close(&mut m.regs);
    m.stats_mut().instructions += instr;
    Some(res)
}

/// The registers inside a burst zone. A zone never leaves its
/// function, so `fp` is fixed and `sp` is held as its offset from `fp`:
/// the offset the frame accessors take. Wrapping arithmetic keeps
/// `fp + sp` equal to the absolute `sp` for every value, a corrupted
/// one included.
#[derive(Debug, Clone, Copy)]
struct ZoneRegs {
    pc: u32,
    /// `sp - fp`.
    sp: u32,
    fp: u32,
}

impl ZoneRegs {
    #[inline(always)]
    fn open(r: &Registers) -> ZoneRegs {
        ZoneRegs {
            pc: r.pc,
            sp: r.sp.raw().wrapping_sub(r.fp.raw()),
            fp: r.fp.raw(),
        }
    }

    #[inline(always)]
    fn close(self, r: &mut Registers) {
        r.pc = self.pc;
        r.sp = Addr(self.fp.wrapping_add(self.sp));
    }
}

/// The runtime's stop, never "now": a stop already past (a checkpoint
/// can outlast a short timer period) waits for the next instruction.
fn runtime_stop(m: &mut Machine, rt: &mut dyn IntermittentRuntime) -> u64 {
    rt.next_stop(m).max(m.cycles() + 1)
}

/// Polls the runtime after an instruction, as the reference does: it
/// acts if its stop is due. Returns the runtime's next stop.
fn poll_runtime(m: &mut Machine, rt: &mut dyn IntermittentRuntime) -> Result<u64> {
    let stop = rt.next_stop(m);
    if m.cycles() < stop {
        return Ok(stop);
    }
    rt.on_stop(m)?;
    Ok(runtime_stop(m, rt))
}

/// Executes decoded ops against a [`WordBurst`] until a stop boundary,
/// a `Ref` op (returned to the caller's slow loop), or a trap. The
/// boundary is checked after every op and between the sub-ops of a
/// fused sequence; on trigger the pc already points at the next
/// sub-instruction's slot (which holds its plain op), so execution
/// resumes exactly where the reference interpreter would. The first op
/// runs even when the zone opens at its stop: that happens only after
/// an ISR entry that ran past the deadline, warning or budget, and the
/// reference [`step`] runs the instruction after its ISR poll
/// unconditionally too. `CUT` selects whether stores test the armed
/// power cut (see [`run_zone`]).
#[cfg_attr(not(debug_assertions), inline(always))]
fn fast_zone<const CUT: bool>(
    bm: &mut WordBurst<'_>,
    regs: &mut ZoneRegs,
    dp: &DecodedProgram,
    data_base: u32,
    stop_at: u64,
    instr: &mut u64,
) -> Result<()> {
    macro_rules! fused {
        ($first:expr $(, $rest:expr)+) => {{
            exec_op::<CUT>(bm, regs, data_base, instr, $first)?;
            $(
                if bm.cycles() >= stop_at {
                    return Ok(());
                }
                exec_op::<CUT>(bm, regs, data_base, instr, $rest)?;
            )+
        }};
    }
    loop {
        let pc = regs.pc;
        let Some(&op) = dp.ops.get(pc as usize) else {
            return Err(VmError::pc_out_of_range(pc));
        };
        match op {
            Op::Ref => return Ok(()),
            Op::LdLKBin { a, k, op } => {
                fused!(Op::LoadLocal(a), Op::Const(k), Op::Bin(op));
            }
            Op::LdLKBinSt { a, k, op, d } => {
                fused!(
                    Op::LoadLocal(a),
                    Op::Const(k),
                    Op::Bin(op),
                    Op::StoreLocal(d)
                );
            }
            Op::LdLKBinBr { a, k, op, t, on_nz } => {
                let br = if on_nz { Op::Jnz(t) } else { Op::Jz(t) };
                fused!(Op::LoadLocal(a), Op::Const(k), Op::Bin(op), br);
            }
            Op::LdGKBin { g, k, op } => {
                fused!(Op::LoadGlobal(g), Op::Const(k), Op::Bin(op));
            }
            Op::LdGKBinSt { g, k, op, d } => {
                fused!(
                    Op::LoadGlobal(g),
                    Op::Const(k),
                    Op::Bin(op),
                    Op::StoreGlobal(d)
                );
            }
            Op::KBin { k, op } => {
                fused!(Op::Const(k), Op::Bin(op));
            }
            Op::KStL { k, d } => {
                fused!(Op::Const(k), Op::StoreLocal(d));
            }
            Op::KStG { k, d } => {
                fused!(Op::Const(k), Op::StoreGlobal(d));
            }
            // One arm per plain op, not a catch-all: each inlines its own
            // `exec_op` body, so a plain op dispatches through one jump
            // table instead of two.
            plain @ Op::Const(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::LoadLocal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::StoreLocal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::AddrLocal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::LoadGlobal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::StoreGlobal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::AddrGlobal(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::LoadInd => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::StoreInd => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Dup => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Pop => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Swap => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Bin(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Un(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Jmp(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Jz(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
            plain @ Op::Jnz(_) => exec_op::<CUT>(bm, regs, data_base, instr, plain)?,
        }
        if bm.cycles() >= stop_at {
            return Ok(());
        }
    }
}

/// Executes one plain (non-`Ref`, non-fused) decoded op on `bus`,
/// mirroring the reference `step_after_isr` body for that instruction:
/// pc increment, instruction count, base cycle charge, then the op's
/// memory traffic in reference order. Pushes, pops, `Dup`'s peek and
/// local slots go through the frame accessors, addressed from `fp`;
/// pushes and pops skip the reference's frame-bound checks: plain ops
/// only occur at verified pcs, where the decoder proved
/// `1 <= depth < max_ostack` as needed.
#[cfg_attr(not(debug_assertions), inline(always))]
fn exec_op<const CUT: bool>(
    bus: &mut WordBurst<'_>,
    regs: &mut ZoneRegs,
    data_base: u32,
    instr: &mut u64,
    op: Op,
) -> Result<()> {
    #[inline(always)]
    fn push<const CUT: bool>(bus: &mut WordBurst<'_>, regs: &mut ZoneRegs, v: i32) -> Result<()> {
        bus.write_frame::<CUT>(regs.sp, v as u32)?;
        regs.sp = regs.sp.wrapping_add(4);
        Ok(())
    }
    #[inline(always)]
    fn pop(bus: &mut WordBurst<'_>, regs: &mut ZoneRegs) -> Result<i32> {
        regs.sp = regs.sp.wrapping_sub(4);
        Ok(bus.read_frame(regs.sp)? as i32)
    }
    regs.pc += 1;
    *instr += 1;
    bus.charge_instr();
    match op {
        Op::Const(v) => push::<CUT>(bus, regs, v),
        Op::LoadLocal(off) => {
            let v = bus.read_frame(off)? as i32;
            push::<CUT>(bus, regs, v)
        }
        Op::StoreLocal(off) => {
            let v = pop(bus, regs)?;
            bus.write_frame::<CUT>(off, v as u32)?;
            Ok(())
        }
        Op::AddrLocal(off) => push::<CUT>(bus, regs, regs.fp.wrapping_add(off) as i32),
        Op::LoadGlobal(off) => {
            let a = Addr(data_base + off);
            let v = bus.read_word(a)? as i32;
            push::<CUT>(bus, regs, v)
        }
        Op::StoreGlobal(off) => {
            let v = pop(bus, regs)?;
            let a = Addr(data_base + off);
            bus.write_word::<CUT>(a, v as u32)?;
            Ok(())
        }
        Op::AddrGlobal(off) => push::<CUT>(bus, regs, (data_base + off) as i32),
        Op::LoadInd => {
            let a = Addr(pop(bus, regs)? as u32);
            let v = bus.read_word(a)? as i32;
            push::<CUT>(bus, regs, v)
        }
        Op::StoreInd => {
            let v = pop(bus, regs)?;
            let a = Addr(pop(bus, regs)? as u32);
            bus.write_word::<CUT>(a, v as u32)?;
            Ok(())
        }
        Op::Dup => {
            // `peek_top` charges nothing in the reference interpreter;
            // only the push is bus traffic.
            let v = bus.peek_frame(regs.sp.wrapping_sub(4))? as i32;
            push::<CUT>(bus, regs, v)
        }
        Op::Pop => {
            pop(bus, regs)?;
            Ok(())
        }
        Op::Swap => {
            let a = pop(bus, regs)?;
            let b = pop(bus, regs)?;
            push::<CUT>(bus, regs, a)?;
            push::<CUT>(bus, regs, b)
        }
        Op::Bin(op) => {
            let b = pop(bus, regs)?;
            let a = pop(bus, regs)?;
            // A `match`, not `?`: in x86-64 release builds the `?` form
            // grew the op bodies inlined into `fast_zone` by ~2 KB and
            // slowed decoded dispatch by ~2%.
            match op.apply(a, b) {
                Ok(r) => push::<CUT>(bus, regs, r),
                Err(msg) => Err(VmError::Trap(msg.into())),
            }
        }
        Op::Un(op) => {
            let a = pop(bus, regs)?;
            push::<CUT>(bus, regs, op.apply(a))
        }
        Op::Jmp(t) => {
            regs.pc = t;
            Ok(())
        }
        Op::Jz(t) => {
            if pop(bus, regs)? == 0 {
                regs.pc = t;
            }
            Ok(())
        }
        Op::Jnz(t) => {
            if pop(bus, regs)? != 0 {
                regs.pc = t;
            }
            Ok(())
        }
        Op::Ref
        | Op::LdLKBin { .. }
        | Op::LdLKBinSt { .. }
        | Op::LdLKBinBr { .. }
        | Op::LdGKBin { .. }
        | Op::LdGKBinSt { .. }
        | Op::KBin { .. }
        | Op::KStL { .. }
        | Op::KStG { .. } => unreachable!("exec_op only receives plain ops"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::runtime::BareRuntime;
    use tics_energy::{ContinuousPower, PeriodicTrace, RecordedTrace};
    use tics_minic::{compile, opt::OptLevel};

    fn run_src(src: &str) -> (RunOutcome, Machine) {
        run_src_opt(src, OptLevel::O0)
    }

    fn run_src_opt(src: &str, lvl: OptLevel) -> (RunOutcome, Machine) {
        let prog = compile(src, lvl).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        (out, m)
    }

    #[test]
    fn arithmetic_program() {
        let (out, _) = run_src("int main() { return (3 + 4) * 5 - 36 / 6 % 4; }");
        assert_eq!(out.exit_code(), Some(35 - 2));
    }

    #[test]
    fn bitwise_program() {
        let (out, _) = run_src("int main() { return ((0xF0 & 0x3C) | 0x01) ^ (1 << 3); }");
        assert_eq!(out.exit_code(), Some(((0xF0 & 0x3C) | 0x01) ^ 8));
    }

    #[test]
    fn locals_and_loops() {
        let (out, _) = run_src(
            "int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }",
        );
        assert_eq!(out.exit_code(), Some(55));
    }

    #[test]
    fn while_break_continue() {
        let (out, _) = run_src(
            "int main() {
                int i = 0; int s = 0;
                while (1) {
                    i++;
                    if (i > 10) break;
                    if (i % 2) continue;
                    s += i;
                }
                return s;
            }",
        );
        assert_eq!(out.exit_code(), Some(2 + 4 + 6 + 8 + 10));
    }

    #[test]
    fn functions_and_arguments() {
        let (out, _) = run_src(
            "int add3(int a, int b, int c) { return a + b + c; }
             int main() { return add3(10, 20, 12); }",
        );
        assert_eq!(out.exit_code(), Some(42));
    }

    #[test]
    fn recursion_fibonacci() {
        let (out, _) = run_src(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { return fib(12); }",
        );
        assert_eq!(out.exit_code(), Some(144));
    }

    #[test]
    fn pointers_into_globals_and_locals() {
        let (out, _) = run_src(
            "int g[4];
             int main() {
                 int x = 5;
                 int *p = &x;
                 *p = 7;
                 int *q = g;
                 q[2] = x;
                 return g[2] + x;
             }",
        );
        assert_eq!(out.exit_code(), Some(14));
    }

    #[test]
    fn pointer_arithmetic_walks_arrays() {
        let (out, _) = run_src(
            "int a[5];
             int main() {
                 for (int i = 0; i < 5; i++) { a[i] = i * i; }
                 int *p = a;
                 int s = 0;
                 for (int i = 0; i < 5; i++) { s += *(p + i); }
                 return s;
             }",
        );
        assert_eq!(out.exit_code(), Some(1 + 4 + 9 + 16));
    }

    #[test]
    fn double_pointers() {
        let (out, _) = run_src(
            "int main() {
                 int x = 1;
                 int *p = &x;
                 int **pp = &p;
                 **pp = 9;
                 return x;
             }",
        );
        assert_eq!(out.exit_code(), Some(9));
    }

    #[test]
    fn ternary_and_logic() {
        let (out, _) =
            run_src("int main() { int a = 3; return (a > 2 && a < 5) ? (a == 3 || 0) : 99; }");
        assert_eq!(out.exit_code(), Some(1));
    }

    #[test]
    fn post_increment_semantics() {
        let (out, _) = run_src(
            "int a[3]; int i;
             int main() {
                 a[i++] = 10;
                 a[i++] = 20;
                 int old = i++;
                 return a[0] + a[1] + old * 100 + i;
             }",
        );
        assert_eq!(out.exit_code(), Some(10 + 20 + 200 + 3));
    }

    #[test]
    fn division_by_zero_traps() {
        let prog = compile("int z; int main() { return 5 / z; }", OptLevel::O0).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        let err = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap_err();
        assert!(matches!(err, VmError::Trap(_)));
    }

    #[test]
    fn syscalls_record_stats() {
        let (out, m) = run_src(
            "int main() { send(7); send(8); mark(1); mark(1); print(99); led(1); return 0; }",
        );
        assert_eq!(out.exit_code(), Some(0));
        assert_eq!(m.stats().sends(), vec![7, 8]);
        assert_eq!(m.stats().mark_count(1), 2);
        assert_eq!(m.stats().prints, vec![99]);
        assert_eq!(m.stats().led_events, 1);
    }

    #[test]
    fn optimization_preserves_semantics() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
                   int a[6];
                   int main() {
                       for (int i = 0; i < 6; i++) { a[i] = fib(i); }
                       int s = 0;
                       int *p = a;
                       for (int i = 0; i < 6; i++) { s = s * 2 + *p; p++; }
                       return s;
                   }";
        let (o0, _) = run_src_opt(src, OptLevel::O0);
        let (o1, _) = run_src_opt(src, OptLevel::O1);
        let (o2, _) = run_src_opt(src, OptLevel::O2);
        assert_eq!(o0.exit_code(), o2.exit_code());
        assert_eq!(o1.exit_code(), o2.exit_code());
    }

    #[test]
    fn o2_executes_fewer_instructions() {
        let src =
            "int main() { int s = 0; for (int i = 0; i < 100; i++) { s += 2 * 3; } return s; }";
        let (_, m0) = run_src_opt(src, OptLevel::O0);
        let (_, m2) = run_src_opt(src, OptLevel::O2);
        assert!(m2.stats().instructions < m0.stats().instructions);
    }

    #[test]
    fn plain_c_restarts_and_nv_accumulates() {
        // The Table 1 failure mode: `nv` counters accumulate across
        // reboots, the final send never happens, state is inconsistent.
        let prog = compile(
            "nv int sensed;
             int main() {
                 while (1) {
                     sample();
                     sensed++;
                     mark(1);
                 }
                 return 0;
             }",
            OptLevel::O0,
        )
        .unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        // 4 short on-periods, then the window ends.
        let mut supply = RecordedTrace::new([(3_000, 100); 4]);
        let out = Executor::new().run(&mut m, &mut rt, &mut supply).unwrap();
        assert_eq!(out, RunOutcome::OutOfEnergy);
        assert_eq!(m.stats().boots, 4);
        let sensed_addr = m.global_addr(0);
        let sensed = m.mem.peek_word(sensed_addr).unwrap() as i32;
        assert!(sensed > 0, "nv counter must survive reboots");
        assert_eq!(u64::from(sensed as u32), m.stats().mark_count(1));
    }

    #[test]
    fn budget_exhaustion_stops_infinite_loops() {
        let (out, _) = {
            let prog = compile("int main() { while (1) {} return 0; }", OptLevel::O0).unwrap();
            let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
            let mut rt = BareRuntime::new();
            let out = Executor::new()
                .with_time_budget(50_000)
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap();
            (out, m)
        };
        assert_eq!(out, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn short_periods_never_let_plain_c_finish() {
        // A program needing ~many cycles, powered in tiny slices, never
        // completes under plain C (it always restarts).
        let prog = compile(
            "int main() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return s; }",
            OptLevel::O0,
        )
        .unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        let mut supply = RecordedTrace::new([(2_000, 500); 20]);
        let out = Executor::new().run(&mut m, &mut rt, &mut supply).unwrap();
        assert_eq!(out, RunOutcome::OutOfEnergy);
        assert_eq!(m.stats().boots, 20);
    }

    #[test]
    fn isr_fires_periodically() {
        let prog = compile(
            "nv int ticks;
             void on_timer() { ticks++; }
             int main() { int i; for (i = 0; i < 10000; i++) {} return ticks; }",
            OptLevel::O0,
        )
        .unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                isr: Some(("on_timer".into(), 10_000)),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        let ticks = out.exit_code().unwrap();
        assert!(ticks > 0, "ISR should have fired");
        assert_eq!(m.stats().isr_entries, ticks as u64);
    }

    #[test]
    fn starvation_detection_fires_for_checkpointless_loops() {
        let prog = compile("int main() { while (1) {} return 0; }", OptLevel::O0).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        let mut supply = PeriodicTrace::new(1_000, 100);
        let out = Executor::new()
            .with_starvation_detection(5)
            .run(&mut m, &mut rt, &mut supply)
            .unwrap();
        assert_eq!(out, RunOutcome::Starved { boots: 5 });
    }

    #[test]
    fn time_ms_reflects_cycles() {
        let (out, _) = run_src(
            "int main() {
                 int t0 = time_ms();
                 for (int i = 0; i < 20000; i++) {}
                 int t1 = time_ms();
                 return t1 >= t0;
             }",
        );
        assert_eq!(out.exit_code(), Some(1));
    }

    /// Plain C whose frame header is corrupted at its first stop: the
    /// return address of the running frame becomes `RET_PC`.
    struct CorruptReturn {
        done: bool,
    }

    impl CorruptReturn {
        const RET_PC: u32 = 4_294_967_167;
    }

    impl IntermittentRuntime for CorruptReturn {
        fn name(&self) -> &'static str {
            "corrupt-return"
        }

        fn capabilities(&self) -> crate::RuntimeCapabilities {
            BareRuntime.capabilities()
        }

        fn instrumentation(&self) -> tics_minic::program::Instrumentation {
            BareRuntime.instrumentation()
        }

        fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
            BareRuntime.on_boot(m)
        }

        fn checkpoint(&mut self, _m: &mut Machine, _kind: CheckpointKind) -> Result<()> {
            Ok(())
        }

        fn next_stop(&mut self, _m: &mut Machine) -> u64 {
            if self.done {
                u64::MAX
            } else {
                0
            }
        }

        fn on_stop(&mut self, m: &mut Machine) -> Result<()> {
            if !self.done {
                self.done = true;
                m.mem.poke_i32(m.regs.fp, Self::RET_PC as i32)?;
            }
            Ok(())
        }
    }

    #[test]
    fn corrupted_return_address_traps_on_both_engines() {
        // `Ret` resumes at the corrupted pc and pushes the return value
        // there; resolving that pc's frame must trap, not panic.
        let prog = compile(
            "int f(int x) { return x + 1; } int main() { int y = 2; return f(y); }",
            OptLevel::O0,
        )
        .unwrap();
        for engine in [DispatchEngine::Reference, DispatchEngine::Decoded] {
            let mut m = Machine::new(prog.clone(), MachineConfig::default()).unwrap();
            let mut rt = CorruptReturn { done: false };
            let err = Executor::new()
                .with_engine(engine)
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap_err();
            assert_eq!(
                err,
                VmError::Trap(format!("pc {} out of range", CorruptReturn::RET_PC)),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn deep_recursion_overflows_sram_stack() {
        let prog = compile(
            "int deep(int n) { int pad[16]; pad[0] = n; if (n == 0) return 0; return deep(n - 1) + pad[0]; }
             int main() { return deep(100); }",
            OptLevel::O0,
        )
        .unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = BareRuntime::new();
        let err = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap_err();
        assert!(matches!(err, VmError::StackOverflow { .. }));
    }
}
