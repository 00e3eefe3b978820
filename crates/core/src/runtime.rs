//! The TICS [`IntermittentRuntime`] implementation.

use tics_mcu::{Addr, Region, Registers};
use tics_minic::isa::{CkptSite, VarId};
use tics_minic::program::{Instrumentation, Program};
use tics_trace::{CkptCause, SpanKind, TraceEvent};
use tics_vm::persist::{
    init_control, pack_misc, unpack_misc, BankChoice, Boot, Checkpoint, CommitOutcome, Misc,
    UndoLog,
};
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, ResumeAction, RuntimeCapabilities, TxDriver,
    VmError,
};

use crate::config::TicsConfig;
use crate::layout::{ctrl, RuntimeLayout, MAGIC};

type Result<T> = std::result::Result<T, VmError>;

/// Bytes the full-image size adds to the segment for the delta
/// threshold: the bank header of the layout before every bank became a
/// sealed record. Frozen so simulated cycles do not move; unifying it
/// with the sealed-record sizes is a re-baseline of its own.
const FULL_IMAGE_PAD: u32 = 36;

#[derive(Debug, Clone, Copy)]
struct ExpiresBlock {
    catch_pc: u32,
    /// The cycle at which the block expires (`u64::MAX`: never).
    expire_at: u64,
    undo_mark: u32,
    /// Externally visible output events (prints + published sends) at
    /// block entry. Once the body's output has escaped, the expiry
    /// abort is defused: running the catch arm then would duplicate
    /// output the outside world already observed.
    output_mark: usize,
}

/// The TICS runtime: stack segmentation, undo-log memory consistency,
/// double-buffered checkpoints, and time-sensitivity semantics.
///
/// All state that must survive power failures lives in simulated FRAM at
/// the addresses of [`RuntimeLayout`]; the fields here are caches rebuilt
/// by [`IntermittentRuntime::on_boot`] (mirroring how the real runtime
/// re-derives its state from non-volatile structures after a reboot).
#[derive(Debug)]
pub struct TicsRuntime {
    config: TicsConfig,
    layout: Option<RuntimeLayout>,
    working_seg: u32,
    atomic_depth: u32,
    last_ckpt_seg: Option<u32>,
    undo: UndoLog,
    io_count: u32,
    next_timer_at: u64,
    pending_shrink_ckpt: bool,
    expires_block: Option<ExpiresBlock>,
    tx: TxDriver,
    /// The checkpoint banks and their delta chain.
    ckpt: Checkpoint,
}

impl TicsRuntime {
    /// Creates a TICS runtime with the given buffer configuration.
    #[must_use]
    pub fn new(config: TicsConfig) -> TicsRuntime {
        TicsRuntime {
            config,
            layout: None,
            working_seg: 0,
            atomic_depth: 0,
            last_ckpt_seg: None,
            undo: UndoLog::default(),
            io_count: 0,
            next_timer_at: 0,
            pending_shrink_ckpt: false,
            expires_block: None,
            tx: TxDriver::default(),
            ckpt: Checkpoint::default(),
        }
    }

    /// The configuration this runtime was built with.
    #[must_use]
    pub fn config(&self) -> &TicsConfig {
        &self.config
    }

    /// The resolved FRAM layout (available once execution has started).
    #[must_use]
    pub fn layout(&self) -> Option<&RuntimeLayout> {
        self.layout.as_ref()
    }

    fn attach(&mut self, m: &mut Machine) -> Result<RuntimeLayout> {
        if let Some(l) = self.layout {
            return Ok(l);
        }
        let l = RuntimeLayout::compute(m.runtime_area_base(), &self.config, &m.loaded().program);
        if !m.mem.layout().fram.contains(l.end) && l.end != m.mem.layout().fram.end {
            return Err(VmError::Load(format!(
                "TICS runtime area ends at {} beyond FRAM {}",
                l.end,
                m.mem.layout().fram
            )));
        }
        init_control(m, l.control, MAGIC, ctrl::SIZE)?;
        self.ckpt.place(l.banks, l.control.offset(ctrl::DELTA_TIP));
        self.undo = UndoLog::new(l.undo, l.undo_capacity, l.control.offset(ctrl::UNDO_COUNT));
        self.layout = Some(l);
        Ok(l)
    }

    /// The misc block of a bank or delta record: registers, atomic
    /// depth, working segment.
    fn misc(&self, m: &Machine) -> Misc {
        let [pc, sp, fp, sr] = m.regs.to_words();
        pack_misc([pc, sp, fp, sr, self.atomic_depth, self.working_seg])
    }

    /// Commits a checkpoint of the working segment (two-phase, §4): a
    /// full image with registers and runtime state, or an incremental
    /// record of the words changed since the previous commit
    /// ([`Checkpoint::commit`]). An abort leaves the previous checkpoint
    /// and the undo log intact. A commit clears the undo log and
    /// transmits the buffered sends.
    fn commit_checkpoint(&mut self, m: &mut Machine, cause: CkptCause) -> Result<CommitOutcome> {
        let l = self.attach(m)?;
        let seg = l.segment(self.working_seg);
        let region = [(seg.start, l.seg_size)];
        let misc = self.misc(m);
        let outcome = self.ckpt.commit(
            m,
            cause,
            &misc,
            FULL_IMAGE_PAD + l.seg_size,
            (&region, &region),
            |c, delta| c.checkpoint_cost(delta.unwrap_or(l.seg_size)),
        )?;
        if outcome != CommitOutcome::Committed {
            return Ok(outcome);
        }
        // The log only needs to undo writes newer than this checkpoint.
        self.undo.clear(m)?;
        self.last_ckpt_seg = Some(self.working_seg);
        // Virtualized I/O: the commit is the transmission point — every
        // buffered send now becomes externally visible, exactly once.
        if self.io_count > 0 {
            let mut span = m.span(SpanKind::Checkpoint);
            let m = &mut *span;
            for i in 0..self.io_count {
                let v = m.mem.peek_word(l.io_slot(i))? as i32;
                m.record_send(v);
                m.mem.add_cycles(8);
            }
            self.io_count = 0;
            m.mem
                .poke_bytes(l.control.offset(ctrl::IO_COUNT), &0u32.to_le_bytes())?;
        }
        Ok(outcome)
    }

    fn arm_timer(&mut self, m: &Machine) {
        if let Some(p) = self.config.timer_period_us {
            self.next_timer_at = m.cycles() + p;
        }
    }
}

impl IntermittentRuntime for TicsRuntime {
    fn name(&self) -> &'static str {
        "TICS"
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities::tics()
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::Tics
    }

    fn check_shape(&self, program: &Program) -> Result<()> {
        let max_frame = program.max_frame_size();
        if max_frame > self.config.seg_size {
            return Err(VmError::Load(format!(
                "segment size {} smaller than the largest frame {} — \
                 the maximum stack frame dictates the minimum block size (§3.1.1)",
                self.config.seg_size, max_frame
            )));
        }
        Ok(())
    }

    fn recycle(&mut self) {
        self.layout = None;
        self.working_seg = 0;
        self.atomic_depth = 0;
        self.last_ckpt_seg = None;
        self.undo = UndoLog::default();
        self.io_count = 0;
        self.next_timer_at = 0;
        self.pending_shrink_ckpt = false;
        self.expires_block = None;
        self.tx.recycle();
        self.ckpt.recycle();
    }

    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
        let l = self.attach(m)?;
        self.atomic_depth = 0;
        self.pending_shrink_ckpt = false;
        self.expires_block = None;
        self.arm_timer(m);
        // Buffered-but-uncommitted transmissions die with the failure —
        // the execution that produced them is being rolled back.
        self.io_count = 0;
        m.mem
            .poke_bytes(l.control.offset(ctrl::IO_COUNT), &0u32.to_le_bytes())?;
        // Anything written after the last checkpoint is rolled back
        // before execution resumes (§3.1.2).
        self.undo.load(m)?;
        self.undo.rollback_to(m, 0)?;
        // Validate before trusting: the bank's CRC catches any corruption
        // the staging read-back could not have seen (e.g. FRAM disturbed
        // after commit, or a clobbered image planted by a fault-injection
        // harness). The full image restores the *entire* working segment
        // the bank names, wiping every uncommitted store, then the delta
        // chain replays on top of it.
        let boot = self.ckpt.boot(
            m,
            |_, misc| {
                let seg = l.segment(unpack_misc(misc)[5]);
                let region = [(seg.start, l.seg_size)];
                (region, region)
            },
            |c, restored| c.restore_cost(restored),
        )?;
        match boot {
            Boot::Restart(choice) => {
                self.working_seg = 0;
                self.last_ckpt_seg = None;
                Ok(ResumeAction::Restart {
                    reinit_globals: choice == BankChoice::FreshStart,
                })
            }
            Boot::Restored { misc } => {
                let [pc, sp, fp, sr, depth, seg] = unpack_misc(&misc);
                m.regs = Registers::from_words([pc, sp, fp, sr]);
                self.atomic_depth = depth;
                self.working_seg = seg;
                self.last_ckpt_seg = Some(seg);
                Ok(ResumeAction::Restored)
            }
        }
    }

    // Frames live in the FRAM segment array, placed segment by segment
    // by `alloc_frame` below.
    fn frame_stack(&mut self, m: &mut Machine) -> Result<Region> {
        let l = self.attach(m)?;
        Ok(Region::with_len(l.segments, l.segment_array_bytes()))
    }

    fn alloc_frame(
        &mut self,
        m: &mut Machine,
        fidx: u16,
        frame_size: u32,
        arg_bytes: u32,
    ) -> Result<Addr> {
        let l = self.attach(m)?;
        if frame_size > l.seg_size {
            return Err(VmError::StackOverflow {
                detail: format!(
                    "frame of {frame_size} B exceeds segment size {}",
                    l.seg_size
                ),
            });
        }
        // The inserted entry check (Figure 7, lines 2-3) costs a compare
        // per call.
        if m.loaded().program.functions[fidx as usize].entry_checked {
            m.mem.add_cycles(4);
        }
        if m.regs.fp == Addr(0) && m.regs.sp == Addr(0) {
            // Fresh program start.
            self.working_seg = 0;
            return Ok(l.segment(0).start);
        }
        let seg = l.segment(self.working_seg);
        if seg.contains_range(m.regs.sp, frame_size) {
            return Ok(m.regs.sp);
        }
        // Stack grow: the working stack moves to the next segment and the
        // arguments are copied across (done by the VM after we return).
        if self.working_seg + 1 >= l.n_segments {
            return Err(VmError::StackOverflow {
                detail: format!(
                    "segment array exhausted ({} segments of {} B)",
                    l.n_segments, l.seg_size
                ),
            });
        }
        self.working_seg += 1;
        let mut span = m.span(SpanKind::StackSegment);
        let m = &mut *span;
        m.mem.add_cycles(m.mem.costs().stack_switch_cost(arg_bytes));
        m.emit(TraceEvent::StackGrow);
        Ok(l.segment(self.working_seg).start)
    }

    fn free_frame(&mut self, m: &mut Machine, fp: Addr) -> Result<()> {
        let l = self.attach(m)?;
        let caller_fp = Addr(m.mem.peek_word(fp.offset(4))?);
        let (Some(cur), Some(caller)) = (l.segment_of(fp), l.segment_of(caller_fp)) else {
            return Ok(()); // bottom frame (caller fp is 0)
        };
        if caller < cur {
            // Stack shrink: the working stack points back to the caller's
            // segment. If the last checkpoint saved a segment that is now
            // above the live stack, the new working stack must be
            // checkpointed before it is modified (§3.1.1) — committed at
            // the next instruction boundary, when the return has
            // completed and the registers are consistent.
            self.working_seg = caller;
            {
                let mut span = m.span(SpanKind::StackSegment);
                let m = &mut *span;
                m.mem.add_cycles(m.mem.costs().stack_switch_cost(0));
                m.emit(TraceEvent::StackShrink);
            }
            // Checkpoint when the previously checkpointed segment is now
            // above the live stack (its image would restore into dead
            // space), or when no restore point exists at all — this is
            // the "working-stack-change driven checkpoint" of Figure 7
            // and §5.3.2.
            if self.last_ckpt_seg.is_none_or(|s| s > caller) {
                self.pending_shrink_ckpt = true;
            }
        }
        Ok(())
    }

    fn logged_store(&mut self, m: &mut Machine, addr: Addr, len: u32) -> Result<()> {
        let l = self.attach(m)?;
        if l.segment(self.working_seg).contains_range(addr, len) {
            // Direct write to the working stack: no logging needed, just
            // the pointer classification cost (Table 4, "no log"). Still
            // undo-log work for attribution purposes — the span covers
            // classification as well as appends.
            let mut span = m.span(SpanKind::UndoLog);
            let m = &mut *span;
            m.mem.add_cycles(m.mem.costs().ptr_check);
            return Ok(());
        }
        if self.undo.is_full() {
            // Forced checkpoint to drain the log and guarantee forward
            // progress (§3.1.2).
            match self.commit_checkpoint(m, CkptCause::Forced)? {
                CommitOutcome::Committed => {}
                // The device is about to brown out: every subsequent
                // store tears to nothing, so skipping the (out-of-room)
                // append cannot lose an old value.
                CommitOutcome::EnergyAbort => return Ok(()),
                // Corruption defeated the drain; appending past the log
                // would clobber neighbouring structures. Die loudly
                // rather than corrupt silently.
                CommitOutcome::VerifyAbort => {
                    return Err(VmError::Trap(
                        "undo log full and checkpoint drain failed verification".into(),
                    ))
                }
            }
        }
        self.undo.append(m, addr, len)
    }

    fn tx_driver(&mut self) -> Option<&mut TxDriver> {
        Some(&mut self.tx)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()> {
        match kind {
            CheckpointKind::Voltage if self.atomic_depth > 0 => Ok(()),
            CheckpointKind::Site(CkptSite::VoltageCheck) => Ok(()), // not a TICS site
            CheckpointKind::Site(_) => self.commit_checkpoint(m, CkptCause::Site).map(|_| ()),
            CheckpointKind::Voltage => self.commit_checkpoint(m, CkptCause::Voltage).map(|_| ()),
        }
    }

    fn next_stop(&mut self, _m: &mut Machine) -> u64 {
        if self.pending_shrink_ckpt && !self.tx.in_txn() {
            return 0;
        }
        let timer = self
            .config
            .timer_period_us
            .map_or(u64::MAX, |_| self.next_timer_at);
        timer.min(self.expires_block.map_or(u64::MAX, |b| b.expire_at))
    }

    fn on_stop(&mut self, m: &mut Machine) -> Result<()> {
        if self.pending_shrink_ckpt && !self.tx.in_txn() {
            self.pending_shrink_ckpt = false;
            self.commit_checkpoint(m, CkptCause::Forced)?;
        }
        if let Some(period) = self.config.timer_period_us {
            if m.cycles() >= self.next_timer_at {
                self.next_timer_at = m.cycles() + period;
                if self.atomic_depth == 0 && !self.tx.in_txn() {
                    self.commit_checkpoint(m, CkptCause::Timer)?;
                }
            }
        }
        if let Some(block) = self.expires_block {
            if m.cycles() >= block.expire_at {
                if m.stats().prints.len() + m.stats().sends_timed.len() > block.output_mark {
                    // The body's output escaped while the reading was
                    // still fresh; aborting now cannot un-print it, and
                    // the catch arm would emit a duplicate. Let the
                    // block run to its normal end instead.
                    if let Some(b) = self.expires_block.as_mut() {
                        b.expire_at = u64::MAX;
                    }
                    return Ok(());
                }
                // Expiration timer fired: undo the block's writes and
                // transfer control to the catch handler (§3.2.3).
                self.undo.rollback_to(m, block.undo_mark)?;
                self.expires_block = None;
                self.atomic_depth = self.atomic_depth.saturating_sub(1);
                m.regs.pc = block.catch_pc;
                // Discard partial operand state of the aborted block.
                let f = m.loaded().function_at(block.catch_pc)?;
                let operand_base = Machine::frame_body(m.regs.fp)
                    .offset(f.arg_bytes() + u32::from(f.locals_bytes));
                m.regs.sp = operand_base;
                m.emit(TraceEvent::ExpiresCatch);
            }
        }
        Ok(())
    }

    fn on_power_failure(&mut self, _m: &mut Machine) {
        self.expires_block = None;
        self.pending_shrink_ckpt = false;
    }

    fn on_isr_enter(&mut self, m: &mut Machine) -> Result<()> {
        // Checkpoints are disabled while servicing interrupts (§4).
        self.atomic_begin(m)
    }

    fn on_isr_exit(&mut self, m: &mut Machine) -> Result<()> {
        // Implicit checkpoint right after return-from-interrupt: if power
        // fails before it completes, the ISR appears not to have run.
        self.atomic_end(m)?;
        if self.tx.in_txn() {
            return Ok(());
        }
        self.commit_checkpoint(m, CkptCause::Isr).map(|_| ())
    }

    fn timestamp_var(&mut self, m: &mut Machine, var: VarId) -> Result<()> {
        let l = self.attach(m)?;
        let slot = l.timestamp_slot(var);
        // Undo-log the old timestamp before overwriting: a replayed life
        // re-timestamps the same slot, and if the next boot rewinds the
        // data without rewinding the timestamp, a rolled-back reading
        // pairs with the newer timestamp and passes an expiry check it
        // should fail (write-after-restore hazard on the slot).
        self.logged_store(m, slot, 4)?;
        self.logged_store(m, slot.offset(4), 4)?;
        let now = m.now().as_micros();
        m.mem.poke_bytes(slot, &now.to_le_bytes())?;
        m.mem.add_cycles(10);
        Ok(())
    }

    fn expires_check(&mut self, m: &mut Machine, var: VarId) -> Result<bool> {
        let l = self.attach(m)?;
        let ttl = m.loaded().program.annotated[var as usize].ttl_us;
        m.mem.add_cycles(12);
        if ttl == 0 {
            return Ok(true); // timestamped but never expires (§3.2)
        }
        let ts = m.mem.peek_u64(l.timestamp_slot(var))?;
        Ok(m.now().as_micros() < ts.saturating_add(ttl))
    }

    fn timely_check(&mut self, m: &mut Machine, deadline_ms: i32) -> Result<bool> {
        m.mem.add_cycles(12);
        Ok((m.now().as_micros() / 1_000) < deadline_ms.max(0) as u64)
    }

    fn atomic_begin(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        self.atomic_depth += 1;
        Ok(())
    }

    fn atomic_end(&mut self, m: &mut Machine) -> Result<()> {
        let _ = m;
        self.atomic_depth = self.atomic_depth.saturating_sub(1);
        Ok(())
    }

    fn expires_block_begin(&mut self, m: &mut Machine, var: VarId, catch_pc: u32) -> Result<()> {
        if self.expires_block.is_some() {
            return Err(VmError::Trap(
                "nested @expires/catch blocks are not supported".into(),
            ));
        }
        let l = self.attach(m)?;
        let ttl = m.loaded().program.annotated[var as usize].ttl_us;
        let ts = m.mem.peek_u64(l.timestamp_slot(var))?;
        let expire_at_us = if ttl == 0 {
            u64::MAX
        } else {
            ts.saturating_add(ttl)
        };
        let now = m.now().as_micros();
        if now >= expire_at_us {
            // Already stale on entry: straight to the catch handler.
            m.regs.pc = catch_pc;
            m.emit(TraceEvent::ExpiresCatch);
            return Ok(());
        }
        self.atomic_begin(m)?;
        self.expires_block = Some(ExpiresBlock {
            catch_pc,
            // Device time advances exactly by on-time (`advance_on`) and
            // the block dies at power failure: the expiry is a cycle.
            expire_at: m.cycles().saturating_add(expire_at_us - now),
            undo_mark: self.undo.len(),
            output_mark: m.stats().prints.len() + m.stats().sends_timed.len(),
        });
        Ok(())
    }

    fn expires_block_end(&mut self, m: &mut Machine) -> Result<()> {
        if self.expires_block.take().is_some() {
            self.atomic_end(m)?;
            // The paper seals time blocks with a checkpoint (deferred if a
            // peripheral transaction is still open, as the executor defers
            // checkpoint requests).
            if !self.tx.in_txn() {
                self.commit_checkpoint(m, CkptCause::Site)?;
            }
        }
        Ok(())
    }

    fn io_send(&mut self, m: &mut Machine, value: i32) -> Result<bool> {
        if !self.config.virtualize_io {
            return Ok(false);
        }
        let l = self.attach(m)?;
        if self.io_count >= l.io_capacity {
            // Commit to drain the buffer (also publishes it).
            match self.commit_checkpoint(m, CkptCause::Forced)? {
                CommitOutcome::Committed => {}
                // The commit died on the energy deadline; the device is
                // about to brown out — the send is lost with this
                // execution, exactly as an un-virtualized radio would
                // lose a half-clocked packet.
                CommitOutcome::EnergyAbort => return Ok(true),
                // Corruption defeated the drain: dropping the send here
                // while execution continues would be a silent loss.
                CommitOutcome::VerifyAbort => {
                    return Err(VmError::Trap(
                        "I/O buffer full and checkpoint drain failed verification".into(),
                    ))
                }
            }
        }
        m.mem.poke_i32(l.io_slot(self.io_count), value)?;
        self.io_count += 1;
        m.mem.poke_bytes(
            l.control.offset(ctrl::IO_COUNT),
            &self.io_count.to_le_bytes(),
        )?;
        m.mem.add_cycles(16);
        Ok(true)
    }
}

/// Reads the valid-checkpoint flag (0 = none, 1 = buffer A, 2 = buffer B)
/// from the runtime's persistent control block — a window into the
/// two-phase commit protocol for tests and debugging. Returns `None`
/// before the runtime has attached to a machine.
#[must_use]
pub fn ctrl_flag(m: &Machine, rt: &TicsRuntime) -> Option<u32> {
    let l = rt.layout()?;
    m.mem.peek_word(l.banks.flag).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_clock::PerfectClock;
    use tics_energy::{ContinuousPower, PeriodicTrace, RecordedTrace};
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::persist::DELTA_HEADER;
    use tics_vm::{Executor, MachineConfig, RunOutcome};

    fn tics_machine(src: &str, config: MachineConfig) -> Machine {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        Machine::with_clock(prog, config, Box::new(PerfectClock::new())).unwrap()
    }

    fn run_intermittent(src: &str, on_us: u64, off_us: u64) -> (RunOutcome, Machine) {
        let mut m = tics_machine(src, MachineConfig::default());
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .with_time_budget(500_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(on_us, off_us))
            .unwrap();
        (out, m)
    }

    #[test]
    fn continuous_power_runs_programs() {
        let mut m = tics_machine(
            "int main() { int s = 0; for (int i = 0; i < 50; i++) { s += i; } return s; }",
            MachineConfig::default(),
        );
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(1225));
    }

    #[test]
    fn survives_frequent_power_failures() {
        // ~1.3k instructions of work with power failing every 3 ms.
        let (out, m) = run_intermittent(
            "int g;
             int main() {
                 for (int i = 0; i < 100; i++) { g = g + i; checkpoint(); }
                 return g;
             }",
            3_000,
            500,
        );
        assert_eq!(out.exit_code(), Some(4950));
        assert!(
            m.stats().power_failures > 0,
            "test must actually fail power"
        );
        assert!(m.stats().restores > 0);
    }

    #[test]
    fn recursion_with_pointers_survives_failures() {
        let mut prog = compile(
            "int scratch[4];
             int fib(int n) {
                 int *p = scratch;
                 *p = n;
                 if (n < 2) return n;
                 return fib(n-1) + fib(n-2);
             }
             int main() { return fib(10); }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        // A 3 ms timer bounds the replay window; power fails every 8 ms,
        // well before fib(10) completes from scratch.
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(3_000)));
        let out = Executor::new()
            .with_time_budget(1_000_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(8_000, 1_000))
            .unwrap();
        assert_eq!(out.exit_code(), Some(55));
        assert!(m.stats().power_failures > 0);
        assert!(
            m.stats().undo_log_appends > 0,
            "global pointer stores are logged"
        );
    }

    #[test]
    fn stack_grow_and_shrink_are_tracked() {
        // Nested calls with big frames force segment changes.
        let (out, m) = run_intermittent(
            "int leaf(int x) { int pad[40]; pad[0] = x; return pad[0] + 1; }
             int mid(int x) { int pad[40]; pad[1] = leaf(x); return pad[1] + 1; }
             int main() { int s = 0; for (int i = 0; i < 5; i++) { s += mid(i); } return s; }",
            50_000,
            1_000,
        );
        assert_eq!(out.exit_code(), Some(1 + 2 + 3 + 4 + 10));
        assert!(m.stats().stack_grows > 0);
        assert!(m.stats().stack_shrinks > 0);
    }

    #[test]
    fn global_increments_are_exactly_once_per_loop() {
        // The Figure 3(a) WAR scenario: without undo logging, re-executed
        // code after a restore would double-increment `len`. With timer
        // checkpoints mid-loop and power failures, the final count must
        // still be exact.
        let mut prog = compile(
            "int len;
             int main() {
                 for (int i = 0; i < 2000; i++) {
                     len = len + 1;
                 }
                 return len;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2_star()); // 10 ms timer
        let out = Executor::new()
            .with_time_budget(1_000_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(25_000, 300))
            .unwrap();
        assert_eq!(out.exit_code(), Some(2000), "WAR consistency violated");
        assert!(m.stats().power_failures > 0);
        assert!(m.stats().restores > 0);
    }

    #[test]
    fn undo_log_overflow_forces_checkpoint() {
        let mut prog = compile(
            "int a[300];
             int main() {
                 for (int i = 0; i < 300; i++) { a[i] = i; }
                 return a[299];
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        // Tiny undo log: 16 entries.
        let mut rt = TicsRuntime::new(TicsConfig {
            undo_capacity: 16,
            ..TicsConfig::default()
        });
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(299));
        assert!(
            m.stats().checkpoints >= 300 / 16,
            "forced checkpoints expected, got {}",
            m.stats().checkpoints
        );
    }

    #[test]
    fn segment_array_exhaustion_is_stack_overflow() {
        let mut prog = compile(
            "int deep(int n) { int pad[30]; pad[0] = n; if (n == 0) return 0; return deep(n-1) + pad[0]; }
             int main() { return deep(50); }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default()); // 8 segments
        let err = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap_err();
        assert!(matches!(err, VmError::StackOverflow { .. }));
    }

    #[test]
    fn deep_recursion_fits_with_more_segments() {
        let mut prog = compile(
            "int deep(int n) { int pad[30]; pad[0] = n; if (n == 0) return 0; return deep(n-1) + pad[0]; }
             int main() { return deep(50); }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default().with_segments(60));
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some((1..=50).sum::<i32>()));
    }

    #[test]
    fn timer_checkpoints_enable_progress_without_manual_sites() {
        // No checkpoint() calls at all: only the 10 ms timer saves state,
        // so a long loop still completes under a 30 ms power period.
        let mut prog = compile(
            "int g;
             int main() {
                 for (int i = 0; i < 2000; i++) { g = g + 1; }
                 return g;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2_star());
        let out = Executor::new()
            .with_time_budget(1_000_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(30_000, 1_000))
            .unwrap();
        assert_eq!(out.exit_code(), Some(2000));
        assert!(m.stats().checkpoints > 0);
    }

    #[test]
    fn starvation_without_timer_when_no_sites_fit() {
        // Power period shorter than the whole program, no checkpoint
        // sites, no timer: TICS restarts forever — starvation, detected.
        let mut prog = compile(
            "int g;
             int main() {
                 for (int i = 0; i < 2000; i++) { g = g + 1; }
                 return g;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2()); // no timer
        let out = Executor::new()
            .with_starvation_detection(10)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(10_000, 1_000))
            .unwrap();
        assert!(matches!(out, RunOutcome::Starved { .. }));
    }

    #[test]
    fn virtualized_io_sends_exactly_once_across_failures() {
        // 40 logical sends through a power-failure storm. Without
        // virtualization, replayed loop iterations re-transmit; with it,
        // the committed stream is exactly 0..40 in order (§7 future
        // work, implemented).
        let src = "nv int i;
                   int main() {
                       while (i < 40) {
                           send(i);
                           for (int b = 0; b < 300; b++) { }
                           i = i + 1;
                       }
                       return i;
                   }";
        let run = |virtualize: bool| {
            let mut prog = compile(src, OptLevel::O1).unwrap();
            passes::instrument_tics(&mut prog).unwrap();
            let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
            let cfg = TicsConfig::s2().with_timer(Some(2_000));
            let cfg = if virtualize {
                cfg.with_virtualized_io()
            } else {
                cfg
            };
            let mut rt = TicsRuntime::new(cfg);
            let out = Executor::new()
                .with_time_budget(1_000_000_000)
                .run(&mut m, &mut rt, &mut PeriodicTrace::new(7_000, 500))
                .unwrap();
            assert_eq!(out.exit_code(), Some(40));
            assert!(m.stats().power_failures > 0);
            m.stats().sends()
        };
        let duplicated = run(false);
        assert!(
            duplicated.len() > 40,
            "un-virtualized replays must re-transmit, got {}",
            duplicated.len()
        );
        let exact = run(true);
        assert_eq!(
            exact,
            (0..40).collect::<Vec<i32>>(),
            "exactly-once violated"
        );
    }

    #[test]
    fn voltage_assisted_checkpointing_enables_progress() {
        // No checkpoint sites, no timer: only the low-voltage comparator
        // interrupt (§4's hardware-assisted policy) saves state right
        // before each power failure.
        let mut prog = compile(
            "int g;
             int main() {
                 for (int i = 0; i < 3000; i++) { g = g + 1; }
                 return g;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2()); // no timer
        let out = Executor::new()
            .with_time_budget(1_000_000_000)
            .with_voltage_warning(900) // fire ~900 µs before death
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(5_000, 500))
            .unwrap();
        assert_eq!(out.exit_code(), Some(3000));
        assert!(m.stats().power_failures > 0);
        assert!(m.stats().checkpoints > 0, "voltage interrupts must commit");
    }

    #[test]
    fn checkpoint_is_double_buffered() {
        // Each loop dirties most of the working segment, so both
        // checkpoints take the full-image path (a small delta would
        // extend the chain without flipping the bank flag).
        let mut m = tics_machine(
            "int main() {
                 int pad[30];
                 for (int i = 0; i < 30; i++) { pad[i] = 1; }
                 checkpoint();
                 for (int i = 0; i < 30; i++) { pad[i] = 2; }
                 checkpoint();
                 return 0;
             }",
            MachineConfig::default(),
        );
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(0));
        assert_eq!(m.stats().checkpoints, 2);
        // After two full checkpoints the flag points at buffer B (2).
        let l = rt.layout().unwrap();
        let flag = m.mem.peek_word(l.banks.flag).unwrap();
        assert_eq!(flag, 2);
    }

    #[test]
    fn small_checkpoints_are_incremental() {
        // After the first full image, site checkpoints in a tight loop
        // dirty only a few stack words each — they commit as delta
        // records an order of magnitude smaller than a full bank.
        let mut m = tics_machine(
            "int main() { int s = 0; for (int i = 0; i < 50; i++) { s += i; checkpoint(); } return s; }",
            MachineConfig::default(),
        );
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(1225));
        assert_eq!(m.stats().checkpoints, 50);
        let full = f64::from(rt.layout().unwrap().banks.bank_bytes());
        let mean = m.stats().mean_checkpoint_bytes().unwrap();
        assert!(
            mean < full / 2.0,
            "steady-state commits must be incremental, mean {mean} vs full {full}"
        );
    }

    // ---- brown-out corruption: detect-or-die ----

    /// Runs two full checkpoints on continuous power so both banks hold
    /// committed generations (flag = 2). Each loop dirties most of the
    /// working segment, keeping both commits on the full-image path.
    fn machine_with_two_committed_banks() -> (Machine, TicsRuntime) {
        let mut m = tics_machine(
            "int main() {
                 int pad[30];
                 for (int i = 0; i < 30; i++) { pad[i] = 1; }
                 checkpoint();
                 for (int i = 0; i < 30; i++) { pad[i] = 2; }
                 checkpoint();
                 return 0;
             }",
            MachineConfig::default(),
        );
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(0));
        assert_eq!(ctrl_flag(&m, &rt), Some(2));
        (m, rt)
    }

    /// Runs one full checkpoint then one incremental on continuous
    /// power: the flag still points at bank A, but the chain tip has
    /// advanced past the bank's sequence number.
    fn machine_with_delta_chain() -> (Machine, TicsRuntime) {
        let mut m = tics_machine(
            "int main() { int x = 1; checkpoint(); x = x + 1; checkpoint(); return x; }",
            MachineConfig::default(),
        );
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(2));
        assert_eq!(m.stats().checkpoints, 2);
        assert_eq!(
            ctrl_flag(&m, &rt),
            Some(1),
            "second commit must be incremental (flag not flipped)"
        );
        let l = rt.layout().unwrap();
        let tip = m.mem.peek_u64(l.control.offset(ctrl::DELTA_TIP)).unwrap();
        let base = m.mem.peek_u64(l.control.offset(ctrl::DELTA_BASE)).unwrap();
        assert!(tip > base, "chain tip must have advanced past the bank");
        (m, rt)
    }

    #[test]
    fn delta_chain_replays_on_boot() {
        let (mut m, mut rt) = machine_with_delta_chain();
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(action, ResumeAction::Restored);
        assert_eq!(m.stats().recoveries, 0, "a valid chain is not a recovery");
    }

    #[test]
    fn corrupt_delta_record_falls_back_and_journals_recovery() {
        // A corrupted *delta* record must truncate the chain to its
        // longest valid prefix (here: the full bank alone) and journal
        // a typed Recovery — never silently restore stale words.
        let (mut m, mut rt) = machine_with_delta_chain();
        let l = *rt.layout().unwrap();
        let a = l.banks.journal().0.offset(DELTA_HEADER + 2);
        let b = m.mem.peek_slice(a, 1).unwrap()[0];
        m.mem.poke_bytes(a, &[b ^ 0x40]).unwrap();
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(
            action,
            ResumeAction::Restored,
            "the anchoring full bank is still a valid restore point"
        );
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(m.stats().fresh_starts, 0);
        let recovered = m.trace().records().iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::Recovery {
                    invalid_banks: 1,
                    fresh_start: false
                }
            )
        });
        assert!(recovered, "typed Recovery event must be on the trace");
    }

    fn clobber_bank(m: &mut Machine, rt: &TicsRuntime, which: u32) {
        let l = rt.layout().unwrap();
        let a = l.banks.bank(which).offset(DELTA_HEADER + 3);
        let b = m.mem.peek_slice(a, 1).unwrap()[0];
        m.mem.poke_bytes(a, &[b ^ 0x40]).unwrap();
    }

    #[test]
    fn corrupt_active_bank_falls_back_to_older_bank() {
        let (mut m, mut rt) = machine_with_two_committed_banks();
        clobber_bank(&mut m, &rt, 2); // active bank
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(action, ResumeAction::Restored);
        assert_eq!(ctrl_flag(&m, &rt), Some(1), "flag repaired to bank A");
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(m.stats().fresh_starts, 0);
    }

    #[test]
    fn corrupt_inactive_bank_is_harmless() {
        let (mut m, mut rt) = machine_with_two_committed_banks();
        clobber_bank(&mut m, &rt, 1); // older, inactive bank
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(action, ResumeAction::Restored);
        assert_eq!(ctrl_flag(&m, &rt), Some(2), "active bank still trusted");
        assert_eq!(m.stats().recoveries, 0);
    }

    #[test]
    fn corrupt_both_banks_degrades_to_fresh_start() {
        let (mut m, mut rt) = machine_with_two_committed_banks();
        clobber_bank(&mut m, &rt, 1);
        clobber_bank(&mut m, &rt, 2);
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(
            action,
            ResumeAction::Restart {
                reinit_globals: true
            }
        );
        assert_eq!(ctrl_flag(&m, &rt), Some(0), "no bank left to trust");
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(m.stats().fresh_starts, 1);
        let recovered = m.trace().records().iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::Recovery {
                    invalid_banks: 2,
                    fresh_start: true
                }
            )
        });
        assert!(recovered, "typed Recovery event must be on the trace");
    }

    #[test]
    fn staged_but_uncommitted_bank_is_not_restored() {
        // A fully staged bank whose flag never flipped (the commit died
        // on the energy gate) is an *uncommitted* checkpoint: flag == 0
        // must stay a plain restart even though the bank's CRC is valid.
        let (mut m, mut rt) = machine_with_two_committed_banks();
        let l = *rt.layout().unwrap();
        m.mem.poke_bytes(l.banks.flag, &0u32.to_le_bytes()).unwrap();
        let action = rt.on_boot(&mut m).unwrap();
        assert_eq!(
            action,
            ResumeAction::Restart {
                reinit_globals: false
            }
        );
        assert_eq!(m.stats().recoveries, 0, "not a recovery, just a restart");
    }

    #[test]
    fn completes_exactly_under_brownout_corruption() {
        // End-to-end: with writes near every power cut being bit-flipped
        // or dropped, the verified two-phase commit still yields an exact
        // WAR-consistent result — corruption is detected and retried or
        // recovered, never silently consumed.
        let mut prog = compile(
            "int len;
             int main() {
                 for (int i = 0; i < 1500; i++) { len = len + 1; }
                 return len;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        m.mem
            .set_corruption(Some(tics_mcu::CorruptionModel::new(2_000, 0.2, 0.1, 7)));
        let mut rt = TicsRuntime::new(TicsConfig::s2_star());
        let out = Executor::new()
            .with_time_budget(1_000_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(25_000, 300))
            .unwrap();
        assert_eq!(out.exit_code(), Some(1500), "WAR consistency violated");
        assert!(m.stats().power_failures > 0);
    }

    #[test]
    fn rejects_segments_smaller_than_max_frame() {
        let mut prog = compile(
            "int big() { int pad[50]; pad[0] = 1; return pad[0]; } int main() { return big(); }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let rt = TicsRuntime::new(TicsConfig::default().with_seg_size(64));
        assert!(matches!(rt.check_program(&prog), Err(VmError::Load(_))));
    }

    // ---- time semantics ----

    #[test]
    fn timestamped_assignment_and_fresh_guard() {
        let (out, m) = run_intermittent(
            "@expires_after = 10s
             int t;
             int main() {
                 t @= sample();
                 int hit = 0;
                 @expires(t) { hit = 1; }
                 return hit;
             }",
            50_000,
            100,
        );
        assert_eq!(out.exit_code(), Some(1), "fresh data must pass the guard");
        assert_eq!(m.stats().expired_data_discards, 0);
    }

    #[test]
    fn expired_data_is_discarded_after_long_outage() {
        // TTL 1 ms; a 50 ms outage strikes during the burn loop between
        // sampling and consuming, so the guard must reject the data.
        let mut prog = compile(
            "@expires_after = 1ms
             int t;
             int main() {
                 t @= sample();
                 int burn = 0;
                 for (int i = 0; i < 8000; i++) { burn += i; }
                 int hit = 0;
                 @expires(t) { hit = 1; }
                 return hit;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .with_time_budget(10_000_000)
            .run(
                &mut m,
                &mut rt,
                &mut RecordedTrace::new([(20_000, 50_000), (500_000, 0)]),
            )
            .unwrap();
        assert_eq!(out.exit_code(), Some(0), "stale data must be discarded");
        assert!(m.stats().expired_data_discards > 0);
    }

    #[test]
    fn timely_branch_takes_else_after_deadline() {
        let (out, m) = run_intermittent(
            "int main() {
                 // Deadline of 0 ms is always in the past.
                 int taken = 0;
                 @timely(0) { taken = 1; } else { taken = 2; }
                 return taken;
             }",
            100_000,
            0,
        );
        assert_eq!(out.exit_code(), Some(2));
        assert_eq!(m.stats().timely_misses, 1);
    }

    #[test]
    fn timely_branch_taken_before_deadline() {
        let (out, _) = run_intermittent(
            "int main() {
                 int taken = 0;
                 @timely(60000) { taken = 1; } else { taken = 2; }
                 return taken;
             }",
            100_000,
            0,
        );
        assert_eq!(out.exit_code(), Some(1));
    }

    #[test]
    fn expires_catch_runs_catch_when_stale_on_entry() {
        let mut prog = compile(
            "@expires_after = 1ms
             int t;
             int main() {
                 // Never assigned via @=, timestamp 0 → stale immediately
                 // once now > 1 ms.
                 int path = 0;
                 int burn = 0;
                 for (int i = 0; i < 3000; i++) { burn += i; }
                 @expires(t) { path = 1; } catch { path = 2; }
                 return path;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(2));
        assert_eq!(m.stats().expires_catches, 1);
    }

    #[test]
    fn expires_catch_aborts_midblock_and_rolls_back() {
        // The block starts fresh, then burns past the TTL inside the
        // block; the runtime must abort to the catch AND undo the
        // block's global writes.
        let mut prog = compile(
            "@expires_after = 20ms
             int t;
             int witness;
             int main() {
                 t @= sample();
                 int path = 0;
                 @expires(t) {
                     witness = 77;   // must be rolled back on expiry
                     for (int i = 0; i < 50000; i++) { }
                     path = 1;
                 } catch {
                     path = 2;
                 }
                 send(witness);
                 return path;
             }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .with_time_budget(50_000_000)
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(2), "catch path must run");
        assert_eq!(m.stats().expires_catches, 1);
        assert_eq!(m.stats().sends(), vec![0], "witness write must be undone");
    }

    #[test]
    fn isr_execution_checkpoints_on_exit() {
        let mut prog = compile(
            "int ticks;
             void on_timer() { ticks = ticks + 1; }
             int main() { for (int i = 0; i < 3000; i++) { } return ticks; }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                isr: Some(("on_timer".into(), 5_000)),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        let ticks = out.exit_code().unwrap();
        assert!(ticks > 0);
        assert!(
            m.stats().checkpoints >= ticks as u64,
            "implicit post-ISR checkpoints"
        );
    }

    #[test]
    fn table4_stack_switch_cost_is_charged() {
        let (_, m) = run_intermittent(
            "int mid(int a, int b) { int pad[40]; pad[0] = a + b; return leaf(pad[0]); }
             int leaf(int x) { int pad[40]; pad[0] = x; return pad[0]; }
             int main() { return mid(1, 2); }",
            1_000_000,
            0,
        );
        assert!(m.stats().stack_grows >= 1);
    }
}
