//! MementOS-style naive checkpointing.

use tics_mcu::{Addr, Registers};
use tics_minic::isa::CkptSite;
use tics_minic::program::Instrumentation;
use tics_trace::{CkptCause, SpanKind, TraceEvent};
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, PortingEffort, ResumeAction, RuntimeCapabilities,
    VmError,
};

use crate::bufs::{init_ctrl, CTRL_SIZE, FLAG};

type Result<T> = std::result::Result<T, VmError>;

/// Cycles charged per voltage-probe site visit (ADC conversion time).
const VOLTAGE_PROBE_US: u64 = 35;

/// The paper's naive comparison point: "logs the complete stack and all
/// global variables (which closely resembles what MementOS does)".
///
/// The stack lives in volatile SRAM. At each voltage-check site (loop
/// latches and function entries, inserted by
/// [`tics_minic::passes::instrument_mementos`]) the runtime commits a
/// checkpoint if enough time has passed since the last one — modeling
/// MementOS's intermittent voltage probes. A checkpoint copies the
/// *entire used stack plus every global* into a double-buffered FRAM
/// area, so its cost grows with program state: exactly the scalability
/// failure the paper attributes to this class of systems.
#[derive(Debug)]
pub struct NaiveCheckpoint {
    /// Minimum µs between committed checkpoints (the voltage-probe
    /// hysteresis).
    min_interval_us: u64,
    last_ckpt_at: u64,
    /// Valid-buffer flag word of the control block, once attached.
    flag: Option<Addr>,
    buf_a: Addr,
    buf_b: Addr,
    buf_bytes: u32,
    /// Reused staging buffer so steady-state commits and restores do
    /// not allocate.
    scratch: Vec<u8>,
}

impl NaiveCheckpoint {
    /// Creates the runtime with a probe interval of `min_interval_us`.
    #[must_use]
    pub fn new(min_interval_us: u64) -> NaiveCheckpoint {
        NaiveCheckpoint {
            min_interval_us,
            last_ckpt_at: 0,
            flag: None,
            buf_a: Addr(0),
            buf_b: Addr(0),
            buf_bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// Copies `len` bytes from `src` to `dst` through the reused
    /// scratch buffer (simulated memory cannot be borrowed for read and
    /// write at once).
    fn copy_via_scratch(&mut self, m: &mut Machine, src: Addr, dst: Addr, len: u32) -> Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(m.mem.peek_slice(src, len)?);
        m.mem.poke_bytes(dst, &self.scratch)?;
        Ok(())
    }

    fn attach(&mut self, m: &mut Machine) -> Result<Addr> {
        if let Some(f) = self.flag {
            return Ok(f);
        }
        let base = m.runtime_area_base();
        let sram = m.mem.layout().sram;
        let globals = m.loaded().program.globals_size;
        // Buffer: regs (16) + used-stack length (4) + stack + globals.
        self.buf_bytes = 16 + 4 + sram.len() + globals;
        self.buf_a = base.offset(CTRL_SIZE);
        self.buf_b = self.buf_a.offset(self.buf_bytes);
        let end = self.buf_b.offset(self.buf_bytes);
        if !m.mem.layout().fram.contains(Addr(end.raw() - 1)) {
            return Err(VmError::Load(
                "naive checkpoint buffers do not fit in FRAM".into(),
            ));
        }
        init_ctrl(m, base)?;
        self.flag = Some(base.offset(FLAG));
        Ok(base.offset(FLAG))
    }

    fn commit(&mut self, m: &mut Machine, cause: CkptCause) -> Result<()> {
        let flag = self.attach(m)?;
        let mut span = m.span(SpanKind::Checkpoint);
        let m = &mut *span;
        let target: u32 = if m.mem.peek_word(flag)? == 1 { 2 } else { 1 };
        let buf = if target == 1 { self.buf_a } else { self.buf_b };
        let sram = m.mem.layout().sram;
        let used = m.regs.sp.raw().saturating_sub(sram.start.raw());
        let words = m.regs.to_words();
        for (i, w) in words.iter().enumerate() {
            m.mem
                .poke_bytes(buf.offset(4 * i as u32), &w.to_le_bytes())?;
        }
        m.mem.poke_bytes(buf.offset(16), &used.to_le_bytes())?;
        if used > 0 {
            self.copy_via_scratch(m, sram.start, buf.offset(20), used)?;
        }
        let globals_len = m.loaded().program.globals_size;
        let data_base = m.data_base();
        if globals_len > 0 {
            self.copy_via_scratch(m, data_base, buf.offset(20 + sram.len()), globals_len)?;
        }
        let bytes = 20 + used + globals_len;
        let cost = m.mem.costs().checkpoint_cost(bytes);
        self.last_ckpt_at = m.cycles();
        // The whole-state copy must fit in the remaining energy or the
        // flag never flips — this is how naive checkpointing starves.
        if !m.charge_atomic(cost) {
            return Ok(());
        }
        m.mem.poke_bytes(flag, &target.to_le_bytes())?;
        m.emit(TraceEvent::CheckpointCommit {
            cause,
            bytes: u64::from(bytes),
        });
        Ok(())
    }
}

impl IntermittentRuntime for NaiveCheckpoint {
    fn name(&self) -> &'static str {
        "naive-mementos"
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: true,
            recursion_support: true,
            scalable: false,
            timely_execution: false,
            // A reboot before the first commit restarts main with
            // whatever `nv` state earlier execution left behind (the
            // executor's restart reinit covers volatile statics only) —
            // the WAR hole Table 5 scores against this class of systems
            // and the divergence the fault harness reproduces.
            memory_consistency: false,
            porting_effort: PortingEffort::None,
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::Mementos
    }

    fn recycle(&mut self) {
        self.last_ckpt_at = 0;
        self.flag = None;
        self.buf_a = Addr(0);
        self.buf_b = Addr(0);
        self.buf_bytes = 0;
        self.scratch.clear();
    }

    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
        let flag = self.attach(m)?;
        self.last_ckpt_at = m.cycles();
        let flag = m.mem.peek_word(flag)?;
        if flag == 0 {
            return Ok(ResumeAction::Restart {
                reinit_globals: true,
            });
        }
        let buf = if flag == 1 { self.buf_a } else { self.buf_b };
        let mut words = [0u32; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = m.mem.peek_word(buf.offset(4 * i as u32))?;
        }
        let used = m.mem.peek_word(buf.offset(16))?;
        let sram = m.mem.layout().sram;
        if used > 0 {
            self.copy_via_scratch(m, buf.offset(20), sram.start, used)?;
        }
        let globals_len = m.loaded().program.globals_size;
        let data_base = m.data_base();
        if globals_len > 0 {
            self.copy_via_scratch(m, buf.offset(20 + sram.len()), data_base, globals_len)?;
        }
        m.regs = Registers::from_words(words);
        let mut span = m.span(SpanKind::Restore);
        let m = &mut *span;
        let cost = m.mem.costs().restore_cost(20 + used + globals_len);
        m.mem.add_cycles(cost);
        m.emit(TraceEvent::Restore {
            bytes: u64::from(20 + used + globals_len),
        });
        Ok(ResumeAction::Restored)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()> {
        match kind {
            CheckpointKind::Site(CkptSite::VoltageCheck) | CheckpointKind::Voltage => {
                // Every site pays for the supply-voltage ADC probe — the
                // dominant steady-state overhead of MementOS-style
                // systems (≈35 µs per measurement on the MSP430).
                m.mem.add_cycles(VOLTAGE_PROBE_US);
                if m.cycles().saturating_sub(self.last_ckpt_at) >= self.min_interval_us {
                    self.commit(m, CkptCause::Voltage)?;
                }
                Ok(())
            }
            CheckpointKind::Site(CkptSite::Manual | CkptSite::TaskBoundary) => {
                self.commit(m, CkptCause::Site)
            }
            _ => Ok(()),
        }
    }
}

impl Default for NaiveCheckpoint {
    fn default() -> Self {
        NaiveCheckpoint::new(2_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_energy::{ContinuousPower, PeriodicTrace};
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::{Executor, MachineConfig};

    fn naive_machine(src: &str) -> Machine {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        passes::instrument_mementos(&mut prog).unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    #[test]
    fn completes_on_continuous_power() {
        let mut m = naive_machine(
            "int main() { int s = 0; for (int i = 0; i < 20; i++) { s += i; } return s; }",
        );
        let mut rt = NaiveCheckpoint::new(100); // probe interval shorter than the run
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(190));
        assert!(m.stats().checkpoints > 0, "voltage sites must commit");
    }

    #[test]
    fn survives_power_failures_with_consistent_globals() {
        let mut m = naive_machine(
            "int g;
             int main() {
                 for (int i = 0; i < 400; i++) { g = g + 1; }
                 return g;
             }",
        );
        let mut rt = NaiveCheckpoint::new(1_000);
        let out = Executor::new()
            .with_time_budget(500_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(20_000, 500))
            .unwrap();
        // Globals are checkpointed/restored together with the stack, so
        // the increment count is exact.
        assert_eq!(out.exit_code(), Some(400));
        assert!(m.stats().power_failures > 0);
        assert!(m.stats().restores > 0);
    }

    #[test]
    fn checkpoint_size_grows_with_state() {
        let small = {
            let mut m = naive_machine("int main() { checkpoint(); return 0; }");
            let mut rt = NaiveCheckpoint::default();
            Executor::new()
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap();
            m.stats().mean_checkpoint_bytes().unwrap()
        };
        let big = {
            let mut m =
                naive_machine("int blob[200]; int main() { blob[0] = 1; checkpoint(); return 0; }");
            let mut rt = NaiveCheckpoint::default();
            Executor::new()
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .unwrap();
            m.stats().mean_checkpoint_bytes().unwrap()
        };
        assert!(
            big > small + 700.0,
            "naive checkpoints must scale with globals: {small} vs {big}"
        );
    }

    #[test]
    fn starves_when_checkpoint_exceeds_on_period() {
        // Huge globals make every checkpoint cost > the on period.
        let mut m = naive_machine(
            "int blob[4000];
             int main() {
                 int i = 0;
                 while (1) { blob[i % 4000] = i; i++; }
                 return 0;
             }",
        );
        let mut rt = NaiveCheckpoint::new(500);
        let out = Executor::new()
            .with_starvation_detection(20)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(2_000, 100))
            .unwrap();
        assert!(
            matches!(out, tics_vm::RunOutcome::Starved { .. }),
            "got {out:?}"
        );
    }
}
