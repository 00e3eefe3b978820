//! Chinchilla-style adaptive checkpointing over promoted statics.

use tics_mcu::Addr;
use tics_minic::isa::CkptSite;
use tics_minic::program::{Instrumentation, Program};
use tics_trace::CkptCause;
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, PortingEffort, ResumeAction, RuntimeCapabilities,
    TxDriver, VmError,
};

use tics_vm::persist::{Boot, Checkpoint};

use crate::bufs;

type Result<T> = std::result::Result<T, VmError>;

/// A Chinchilla-style runtime (Maeng et al., OSDI 2018, as characterized
/// in the paper's §5.3.1).
///
/// Runs programs transformed by
/// [`tics_minic::passes::instrument_chinchilla`]: every local is promoted
/// to a non-volatile global, which rules out recursion and explodes
/// `.data`. The code is *over-instrumented* with checkpoint sites; a
/// timing heuristic stands in for Chinchilla's dynamic enable/disable
/// machinery — a site commits only when `min_interval_us` has elapsed.
/// A checkpoint double-buffers the registers, the (small) frame stack,
/// and the entire static area — original globals plus promoted locals —
/// so its cost scales with program size (Table 5 "Poor" scalability).
#[derive(Debug)]
pub struct ChinchillaRuntime {
    min_interval_us: u64,
    last_ckpt_at: u64,
    ckpt: Checkpoint,
    tx: TxDriver,
}

impl ChinchillaRuntime {
    /// Creates the runtime; `min_interval_us` is the heuristic's minimum
    /// spacing between committed checkpoints.
    #[must_use]
    pub fn new(min_interval_us: u64) -> ChinchillaRuntime {
        ChinchillaRuntime {
            min_interval_us,
            last_ckpt_at: 0,
            ckpt: Checkpoint::default(),
            tx: TxDriver::default(),
        }
    }

    fn attach(&mut self, m: &mut Machine) -> Result<()> {
        if self.ckpt.banks().is_some() {
            return Ok(());
        }
        // A bank holds the registers, the used-stack length, the stack
        // and the entire static area.
        bufs::attach_hardened(
            m,
            m.mem.layout().sram.len() + m.loaded().program.globals_size,
            0,
            &mut self.ckpt,
            "chinchilla double buffers do not fit in FRAM (statics too large)",
        )?;
        Ok(())
    }

    /// The delta capture/replay regions: the whole SRAM window (a fixed
    /// superset of the bank's live `[0, used)` prefix — extra words are
    /// dead stack, sound to capture) plus the promoted statics.
    fn regions(m: &Machine) -> [(Addr, u32); 2] {
        let sram = m.mem.layout().sram;
        [
            (sram.start, sram.len()),
            (m.data_base(), m.loaded().program.globals_size),
        ]
    }

    /// The full-image parts: the live stack prefix and the statics.
    fn images(m: &Machine, used: u32) -> [(Addr, u32); 2] {
        [
            (m.mem.layout().sram.start, used),
            (m.data_base(), m.loaded().program.globals_size),
        ]
    }

    fn commit(&mut self, m: &mut Machine, cause: CkptCause) -> Result<()> {
        self.attach(m)?;
        let used = m
            .regs
            .sp
            .raw()
            .saturating_sub(m.mem.layout().sram.start.raw());
        let full_bytes = bufs::FULL_IMAGE_PAD + used + m.loaded().program.globals_size;
        let misc = bufs::misc(m, used);
        let (regions, images) = (Self::regions(m), Self::images(m, used));
        self.last_ckpt_at = m.cycles();
        // An abort (corruption defeated staging, or the commit died on
        // the energy deadline) leaves the previous checkpoint standing.
        self.ckpt.commit(
            m,
            cause,
            &misc,
            full_bytes,
            (&regions, &images),
            |c, delta| c.checkpoint_cost(delta.unwrap_or(full_bytes)),
        )?;
        Ok(())
    }
}

impl Default for ChinchillaRuntime {
    fn default() -> Self {
        ChinchillaRuntime::new(3_000)
    }
}

impl IntermittentRuntime for ChinchillaRuntime {
    fn name(&self) -> &'static str {
        "Chinchilla"
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: true,
            recursion_support: false,
            scalable: false,
            timely_execution: false,
            memory_consistency: true,
            porting_effort: PortingEffort::None,
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::Chinchilla
    }

    fn check_shape(&self, program: &Program) -> Result<()> {
        if program.has_recursion {
            return Err(VmError::Load(
                "chinchilla cannot run recursive programs (§5.3.1)".into(),
            ));
        }
        Ok(())
    }

    fn recycle(&mut self) {
        self.last_ckpt_at = 0;
        self.ckpt.recycle();
        self.tx.recycle();
    }

    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
        self.attach(m)?;
        self.last_ckpt_at = m.cycles();
        // Rewriting the live stack prefix and the entire statics area
        // wipes any uncommitted stores there.
        let boot = self.ckpt.boot(
            m,
            |m, misc| (Self::regions(m), Self::images(m, bufs::unpack(misc).1)),
            |c, restored| c.restore_cost(bufs::RESTORE_PAD + restored),
        )?;
        let Boot::Restored { misc } = boot else {
            // No (valid) checkpoint, so the committed image is the
            // pristine load image. Chinchilla's versioned memory
            // discards uncommitted writes — and the promoted locals are
            // `nv` by construction, outside the executor's volatile-only
            // reinit — so *all* statics must go back to their
            // initializers here.
            m.init_globals(true)?;
            return Ok(ResumeAction::Restart {
                reinit_globals: false,
            });
        };
        m.regs = bufs::unpack(&misc).0;
        Ok(ResumeAction::Restored)
    }

    fn tx_driver(&mut self) -> Option<&mut TxDriver> {
        Some(&mut self.tx)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()> {
        match kind {
            CheckpointKind::Site(CkptSite::Auto | CkptSite::VoltageCheck)
            | CheckpointKind::Voltage => {
                let cause = match kind {
                    CheckpointKind::Voltage => CkptCause::Voltage,
                    _ => CkptCause::Site,
                };
                if m.cycles().saturating_sub(self.last_ckpt_at) >= self.min_interval_us {
                    self.commit(m, cause)?;
                }
                Ok(())
            }
            CheckpointKind::Site(_) => self.commit(m, CkptCause::Site),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_energy::{ContinuousPower, PeriodicTrace};
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::{Executor, MachineConfig};

    fn chin_machine(src: &str) -> Machine {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        passes::instrument_chinchilla(&mut prog).unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    #[test]
    fn completes_simple_programs() {
        let mut m = chin_machine(
            "int main() { int s = 0; for (int i = 0; i < 30; i++) { s += i; } return s; }",
        );
        let mut rt = ChinchillaRuntime::default();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(435));
    }

    #[test]
    fn survives_power_failures() {
        let mut m = chin_machine(
            "int g;
             int main() {
                 for (int i = 0; i < 600; i++) { g = g + 1; }
                 return g;
             }",
        );
        let mut rt = ChinchillaRuntime::new(1_500);
        let out = Executor::new()
            .with_time_budget(500_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(25_000, 500))
            .unwrap();
        assert_eq!(out.exit_code(), Some(600));
        assert!(m.stats().power_failures > 0);
    }

    #[test]
    fn rejects_recursive_programs() {
        // instrument_chinchilla itself rejects; the runtime double-checks
        // with a hand-tagged image.
        let mut prog = compile(
            "int fib(int n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }
             int main() { return fib(4); }",
            OptLevel::O1,
        )
        .unwrap();
        assert!(passes::instrument_chinchilla(&mut prog).is_err());
        prog.instrumentation = Instrumentation::Chinchilla;
        assert!(ChinchillaRuntime::default().check_program(&prog).is_err());
    }

    #[test]
    fn checkpoints_scale_with_promoted_statics() {
        let small = {
            let mut m = chin_machine("int main() { int x = 1; checkpoint(); return x; }");
            let mut rt = ChinchillaRuntime::default();
            Executor::new()
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap();
            m.stats().mean_checkpoint_bytes().unwrap()
        };
        let big = {
            let mut m = chin_machine(
                "int main() { int blob[300]; blob[0] = 1; checkpoint(); return blob[0]; }",
            );
            let mut rt = ChinchillaRuntime::default();
            Executor::new()
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap();
            m.stats().mean_checkpoint_bytes().unwrap()
        };
        // The local blob was promoted to statics, so the checkpoint grew
        // by ~1200 bytes even though it is a *local* in the source.
        assert!(big > small + 1_000.0, "{small} vs {big}");
    }

    fn clobber(m: &mut Machine, buf: Addr) {
        let a = buf.offset(tics_vm::persist::DELTA_HEADER + 2);
        let b = m.mem.peek_slice(a, 1).unwrap()[0];
        m.mem.poke_bytes(a, &[b ^ 0x10]).unwrap();
    }

    #[test]
    fn corrupt_banks_fall_back_then_fresh_start() {
        let mut m = chin_machine(
            "int g;
             int main() { for (int i = 0; i < 600; i++) { g = g + 1; } return g; }",
        );
        let mut rt = ChinchillaRuntime::new(1_500);
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
        clobber(&mut m, active);
        let action = rt.on_boot(&mut m).unwrap();
        assert!(matches!(action, ResumeAction::Restored));
        assert_eq!(m.stats().recoveries, 1);
        // With the fallback corrupted too, recovery degrades to a fresh
        // start (Chinchilla re-seeds all statics from the load image).
        clobber(&mut m, other);
        let action = rt.on_boot(&mut m).unwrap();
        assert!(matches!(
            action,
            ResumeAction::Restart {
                reinit_globals: false
            }
        ));
        assert_eq!(m.stats().recoveries, 2);
        assert_eq!(m.stats().fresh_starts, 1);
        assert_eq!(m.mem.peek_word(banks.flag).unwrap(), 0);
    }
}
