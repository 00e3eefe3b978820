//! Ratchet-style idempotent-boundary register checkpointing.

use tics_mcu::{Addr, Region};
use tics_minic::isa::CkptSite;
use tics_minic::program::Instrumentation;
use tics_trace::CkptCause;
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, PortingEffort, ResumeAction, RuntimeCapabilities,
    TxDriver, VmError,
};

use tics_vm::persist::{BankChoice, Boot, Checkpoint, CommitOutcome};

use crate::bufs;

type Result<T> = std::result::Result<T, VmError>;

/// A Ratchet-style runtime (Van Der Woude & Hicks, OSDI 2016).
///
/// All memory — including the stack — lives in non-volatile FRAM, so a
/// checkpoint is just the registers: constant cost, taken at *every*
/// idempotent-section boundary the compiler pass placed (before
/// WAR-closing stores, and conservatively before every pointer access,
/// since aliases cannot be resolved statically). On pointer-heavy code
/// the boundaries are nearly back-to-back — the overhead the paper's
/// §3.1 highlights.
#[derive(Debug)]
pub struct RatchetRuntime {
    stack_bytes: u32,
    stack: Region,
    /// Checkpoints of the frame window `(fp, frame_len)`: a boundary
    /// with a different window forces a full image.
    ckpt: Checkpoint,
    tx: TxDriver,
}

impl RatchetRuntime {
    /// Creates the runtime with an FRAM stack region of `stack_bytes`.
    #[must_use]
    pub fn new(stack_bytes: u32) -> RatchetRuntime {
        RatchetRuntime {
            stack_bytes,
            stack: Region::with_len(Addr(0), 0),
            ckpt: Checkpoint::default(),
            tx: TxDriver::default(),
        }
    }

    fn attach(&mut self, m: &mut Machine) -> Result<()> {
        if self.ckpt.banks().is_some() {
            return Ok(());
        }
        // A bank holds the registers, the frame length, and the current
        // frame image — this VM's analog of Ratchet's renamed register
        // set (operand scratch lives in the frame here, not in registers).
        let stack_start = bufs::attach_hardened(
            m,
            m.loaded().program.max_frame_size(),
            self.stack_bytes,
            &mut self.ckpt,
            "ratchet FRAM stack does not fit",
        )?;
        self.stack = Region::with_len(stack_start, self.stack_bytes);
        Ok(())
    }

    fn commit(&mut self, m: &mut Machine, cause: CkptCause) -> Result<()> {
        self.attach(m)?;
        let frame_len = m.regs.sp.raw().saturating_sub(m.regs.fp.raw());
        // Incremental commit while the frame window is stable: only the
        // words the write monitor saw changing since the last commit.
        let region = [(m.regs.fp, frame_len)];
        let misc = bufs::misc(m, frame_len);
        // Bounded by the largest frame — effectively constant, unlike
        // stack- or statics-sized checkpoints.
        let outcome = self.ckpt.commit(
            m,
            cause,
            &misc,
            bufs::FULL_IMAGE_PAD + frame_len,
            (&region, &region),
            |c, delta| c.ckpt_base + u64::from(delta.unwrap_or(frame_len)) / 4,
        )?;
        // Ratchet's consistency *is* the boundary checkpoint: a skipped
        // commit before a WAR-closing store would silently violate
        // idempotence on the next reboot. Die loudly.
        if outcome == CommitOutcome::VerifyAbort {
            return Err(VmError::Trap(
                "Ratchet: boundary checkpoint failed read-back verification".into(),
            ));
        }
        Ok(())
    }
}

impl Default for RatchetRuntime {
    fn default() -> Self {
        RatchetRuntime::new(2_048)
    }
}

impl IntermittentRuntime for RatchetRuntime {
    fn name(&self) -> &'static str {
        "Ratchet"
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: true,
            recursion_support: false,
            scalable: false,
            timely_execution: false,
            memory_consistency: true,
            porting_effort: PortingEffort::High,
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::Ratchet
    }

    fn recycle(&mut self) {
        self.stack = Region::with_len(Addr(0), 0);
        self.ckpt.recycle();
        self.tx.recycle();
    }

    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
        self.attach(m)?;
        // The bank's whole frame window is restored, wiping any
        // uncommitted stores inside it.
        let boot = self.ckpt.boot(
            m,
            |_, misc| {
                let (regs, frame_len) = bufs::unpack(misc);
                let region = [(regs.fp, frame_len)];
                (region, region)
            },
            |c, restored| c.restore_base + u64::from(restored) / 4,
        )?;
        match boot {
            Boot::Restart(choice) => Ok(ResumeAction::Restart {
                reinit_globals: choice == BankChoice::FreshStart,
            }),
            Boot::Restored { misc } => {
                m.regs = bufs::unpack(&misc).0;
                Ok(ResumeAction::Restored)
            }
        }
    }

    // All frames live in the FRAM stack after the persistent area.
    fn frame_stack(&mut self, m: &mut Machine) -> Result<Region> {
        self.attach(m)?;
        Ok(self.stack)
    }

    fn tx_driver(&mut self) -> Option<&mut TxDriver> {
        Some(&mut self.tx)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()> {
        match kind {
            // Every idempotent boundary checkpoints — that is Ratchet.
            CheckpointKind::Site(CkptSite::Auto | CkptSite::Manual) => {
                self.commit(m, CkptCause::Site)
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_energy::{ContinuousPower, PeriodicTrace};
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::{Executor, MachineConfig};

    fn ratchet_machine(src: &str) -> Machine {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        passes::instrument_ratchet(&mut prog).unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    #[test]
    fn completes_and_checkpoints_constant_size() {
        let mut m = ratchet_machine(
            "int g;
             int main() { for (int i = 0; i < 10; i++) { g = g + 1; } return g; }",
        );
        let mut rt = RatchetRuntime::default();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(10));
        assert!(m.stats().checkpoints > 0);
        // Register file + one bounded frame — never the whole stack.
        let mean = m.stats().mean_checkpoint_bytes().unwrap();
        assert!(mean < 300.0, "checkpoints must stay bounded, got {mean}");
    }

    #[test]
    fn survives_power_failures_with_war_safety() {
        // g = g + 1 closes a WAR dependency each iteration; the pass put
        // a boundary checkpoint before the store, so replays never
        // double-increment.
        let mut m = ratchet_machine(
            "int g;
             int main() { for (int i = 0; i < 500; i++) { g = g + 1; } return g; }",
        );
        let mut rt = RatchetRuntime::default();
        let out = Executor::new()
            .with_time_budget(500_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(15_000, 500))
            .unwrap();
        assert_eq!(out.exit_code(), Some(500));
        assert!(m.stats().power_failures > 0);
    }

    #[test]
    fn pointer_heavy_code_checkpoints_constantly() {
        let mut m = ratchet_machine(
            "int a[50];
             int main() {
                 int *p = a;
                 for (int i = 0; i < 50; i++) { *(p + i) = i; }
                 return a[49];
             }",
        );
        let mut rt = RatchetRuntime::default();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(49));
        // One checkpoint per pointer store, at least.
        assert!(m.stats().checkpoints >= 50, "got {}", m.stats().checkpoints);
    }

    fn clobber(m: &mut Machine, buf: Addr) {
        let a = buf.offset(tics_vm::persist::DELTA_HEADER + 2);
        let b = m.mem.peek_slice(a, 1).unwrap()[0];
        m.mem.poke_bytes(a, &[b ^ 0x10]).unwrap();
    }

    #[test]
    fn corrupt_banks_fall_back_then_fresh_start() {
        let mut m = ratchet_machine(
            "int g;
             int main() { for (int i = 0; i < 10; i++) { g = g + 1; } return g; }",
        );
        let mut rt = RatchetRuntime::default();
        Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        let banks = rt.ckpt.banks().unwrap();
        let flag = m.mem.peek_word(banks.flag).unwrap();
        assert!(flag == 1 || flag == 2, "a checkpoint must have committed");
        let (active, other) = if flag == 1 {
            (banks.a, banks.b)
        } else {
            (banks.b, banks.a)
        };
        // Corrupt the active bank: boot detects it and falls back.
        clobber(&mut m, active);
        let action = rt.on_boot(&mut m).unwrap();
        assert!(matches!(action, ResumeAction::Restored));
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(
            m.mem.peek_word(banks.flag).unwrap(),
            if flag == 1 { 2 } else { 1 }
        );
        // Corrupt the fallback too: recovery degrades to a fresh start.
        clobber(&mut m, other);
        let action = rt.on_boot(&mut m).unwrap();
        assert!(matches!(
            action,
            ResumeAction::Restart {
                reinit_globals: true
            }
        ));
        assert_eq!(m.stats().recoveries, 2);
        assert_eq!(m.stats().fresh_starts, 1);
        assert_eq!(m.mem.peek_word(banks.flag).unwrap(), 0);
    }
}
