//! Task-based kernels: Alpaca, InK, and MayFly.

use tics_mcu::Addr;
use tics_minic::isa::{CkptSite, VarId};
use tics_minic::program::{Instrumentation, Program};
use tics_trace::CkptCause;
use tics_vm::{
    CheckpointKind, IntermittentRuntime, Machine, PortingEffort, ResumeAction, RuntimeCapabilities,
    TxDriver, VmError,
};

use tics_vm::persist::{BankChoice, Boot, Checkpoint, CommitOutcome, UndoLog};

use crate::bufs;

type Result<T> = std::result::Result<T, VmError>;

/// Entries in a kernel's privatization buffer (its undo log).
const UNDO_CAPACITY: u32 = 256;

/// Which task-based system the kernel models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskFlavor {
    /// Alpaca (Maeng et al., OOPSLA 2017): privatization + commit at
    /// task transitions; no pointers, no recursion, no time awareness.
    Alpaca,
    /// InK (Yıldırım et al., SenSys 2018): a reactive task kernel with
    /// timing support.
    Ink,
    /// MayFly (Hester et al., SenSys 2017): task graphs with timing
    /// constraints on edges; no loops in the graph.
    Mayfly,
}

impl TaskFlavor {
    /// Kernel library `.text` footprint (for Table 3-style accounting).
    #[must_use]
    pub fn runtime_text_bytes(self) -> u32 {
        match self {
            TaskFlavor::Alpaca => 2_600,
            TaskFlavor::Ink => 3_000,
            TaskFlavor::Mayfly => 3_300,
        }
    }

    /// Kernel fixed `.data` footprint (queues, graph tables) — the
    /// dominant shadow-copy term is added per-program by
    /// [`tics_minic::passes::instrument_task_based`].
    #[must_use]
    pub fn runtime_data_bytes(self) -> u32 {
        match self {
            TaskFlavor::Alpaca => 180,
            TaskFlavor::Ink => 260,
            TaskFlavor::Mayfly => 300,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TaskFlavor::Alpaca => "Alpaca",
            TaskFlavor::Ink => "InK",
            TaskFlavor::Mayfly => "MayFly",
        }
    }
}

/// A task-based kernel runtime.
///
/// Task programs are *hand-ported* (Table 5's "High" porting effort):
/// the source defines one function per task plus a dispatcher `main`
/// that threads a persistent `nv` current-task variable. The kernel
/// provides the systems' common execution guarantee — tasks are atomic
/// and idempotent:
///
/// * every global (task-shared) write is privatized via a persistent
///   undo log (equivalent, at the memory level, to Alpaca's
///   privatize-then-commit),
/// * at each task boundary the log is committed (cleared) and a small
///   dispatcher checkpoint (registers + SRAM frames) becomes the restart
///   point,
/// * a reboot rolls uncommitted writes back and restarts the interrupted
///   task from its entry.
///
/// InK and MayFly additionally support the timestamp/freshness
/// operations (their task graphs carry timing constraints); Alpaca does
/// not. None of them accept pointer-manipulating or recursive programs.
#[derive(Debug)]
pub struct TaskKernel {
    flavor: TaskFlavor,
    undo: UndoLog,
    ts_base: Addr,
    ckpt: Checkpoint,
    tx: TxDriver,
}

impl TaskKernel {
    /// Creates a kernel of the given flavor.
    #[must_use]
    pub fn new(flavor: TaskFlavor) -> TaskKernel {
        TaskKernel {
            flavor,
            undo: UndoLog::default(),
            ts_base: Addr(0),
            ckpt: Checkpoint::default(),
            tx: TxDriver::default(),
        }
    }

    fn attach(&mut self, m: &mut Machine) -> Result<()> {
        if self.ckpt.banks().is_some() {
            return Ok(());
        }
        // A bank holds the registers, the used-stack length and the
        // stack; the timestamp table and the undo log follow the journal.
        let sram = m.mem.layout().sram.len();
        let timestamps = 8 * m.loaded().program.annotated.len() as u32;
        let end = bufs::attach_hardened(
            m,
            sram,
            timestamps + 8 * UNDO_CAPACITY,
            &mut self.ckpt,
            "task kernel buffers do not fit in FRAM",
        )?;
        // The undo count lives in the control block's scratch word.
        self.undo = UndoLog::new(
            end.offset(timestamps),
            UNDO_CAPACITY,
            m.runtime_area_base().offset(bufs::SCRATCH),
        );
        self.ts_base = end;
        Ok(())
    }

    /// Commit at a task boundary: the undo log becomes the committed
    /// state and a fresh dispatcher checkpoint is taken.
    fn commit_boundary(&mut self, m: &mut Machine) -> Result<()> {
        self.attach(m)?;
        let sram = m.mem.layout().sram;
        let used = m.regs.sp.raw().saturating_sub(sram.start.raw());
        // The dispatcher checkpoint covers the whole SRAM window (a
        // fixed superset of the live `[0, used)` prefix, so every chain
        // record shares the bank's region).
        let region = [(sram.start, sram.len())];
        let full_bytes = bufs::FULL_IMAGE_PAD + used;
        let misc = bufs::misc(m, used);
        let outcome = self.ckpt.commit(
            m,
            CkptCause::Site,
            &misc,
            full_bytes,
            (&region, &[(sram.start, used)]),
            |c, delta| c.checkpoint_cost(delta.unwrap_or(full_bytes)),
        )?;
        // On an abort the undo log keeps privatizing past the boundary,
        // so a reboot rolls back to the still-valid previous checkpoint.
        if outcome == CommitOutcome::Committed {
            self.undo.clear(m)?;
        }
        Ok(())
    }

    fn supports_time(&self) -> bool {
        matches!(self.flavor, TaskFlavor::Ink | TaskFlavor::Mayfly)
    }

    /// Traps unless the flavor supports the timestamp/freshness
    /// operations.
    fn require_time(&self) -> Result<()> {
        if self.supports_time() {
            Ok(())
        } else {
            Err(VmError::Trap(format!(
                "{} has no timing support (Table 5)",
                self.flavor.name()
            )))
        }
    }
}

impl IntermittentRuntime for TaskKernel {
    fn name(&self) -> &'static str {
        self.flavor.name()
    }

    fn capabilities(&self) -> RuntimeCapabilities {
        RuntimeCapabilities {
            pointer_support: false,
            recursion_support: false,
            scalable: false,
            timely_execution: self.supports_time(),
            memory_consistency: true,
            porting_effort: PortingEffort::High,
        }
    }

    fn instrumentation(&self) -> Instrumentation {
        Instrumentation::TaskBased
    }

    fn check_shape(&self, program: &Program) -> Result<()> {
        if program.has_recursion {
            return Err(VmError::Load(format!(
                "{} does not support recursion (Table 5)",
                self.flavor.name()
            )));
        }
        if program.uses_pointers {
            return Err(VmError::Load(format!(
                "{} enforces a static memory model: pointers are not supported (Table 5)",
                self.flavor.name()
            )));
        }
        Ok(())
    }

    fn recycle(&mut self) {
        self.undo = UndoLog::default();
        self.ts_base = Addr(0);
        self.ckpt.recycle();
        self.tx.recycle();
    }

    fn on_boot(&mut self, m: &mut Machine) -> Result<ResumeAction> {
        self.attach(m)?;
        // Writes of the interrupted task are rolled back: the task
        // restarts idempotently from its boundary.
        self.undo.load(m)?;
        self.undo.rollback_to(m, 0)?;
        let boot = self.ckpt.boot(
            m,
            |m, misc| {
                let sram = m.mem.layout().sram;
                let used = bufs::unpack(misc).1;
                ([(sram.start, sram.len())], [(sram.start, used)])
            },
            |c, restored| c.restore_cost(bufs::RESTORE_PAD + restored),
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

    fn logged_store(&mut self, m: &mut Machine, addr: Addr, len: u32) -> Result<()> {
        self.attach(m)?;
        // Only task-shared state (the FRAM data segment) is privatized.
        let data_start = m.data_base();
        let data_end = data_start.offset(m.loaded().program.globals_size);
        if addr < data_start || addr >= data_end {
            return Ok(());
        }
        if self.undo.is_full() {
            // A task that outgrows its privatization buffer cannot commit
            // atomically — tasks must be decomposed smaller (the manual
            // effort the paper criticizes).
            return Err(VmError::Trap(format!(
                "{}: task exceeds its privatization buffer ({} entries); \
                 split the task",
                self.flavor.name(),
                UNDO_CAPACITY
            )));
        }
        self.undo.append(m, addr, len)
    }

    fn tx_driver(&mut self) -> Option<&mut TxDriver> {
        Some(&mut self.tx)
    }

    fn checkpoint(&mut self, m: &mut Machine, kind: CheckpointKind) -> Result<()> {
        match kind {
            CheckpointKind::Site(CkptSite::TaskBoundary | CkptSite::Manual) => {
                self.commit_boundary(m)
            }
            _ => Ok(()),
        }
    }

    fn timestamp_var(&mut self, m: &mut Machine, var: VarId) -> Result<()> {
        self.require_time()?;
        self.attach(m)?;
        let now = m.now().as_micros();
        m.mem
            .poke_bytes(self.ts_base.offset(8 * u32::from(var)), &now.to_le_bytes())?;
        m.mem.add_cycles(10);
        Ok(())
    }

    fn expires_check(&mut self, m: &mut Machine, var: VarId) -> Result<bool> {
        self.require_time()?;
        self.attach(m)?;
        let ttl = m.loaded().program.annotated[var as usize].ttl_us;
        m.mem.add_cycles(12);
        if ttl == 0 {
            return Ok(true);
        }
        let ts = m.mem.peek_u64(self.ts_base.offset(8 * u32::from(var)))?;
        Ok(m.now().as_micros() < ts.saturating_add(ttl))
    }

    fn timely_check(&mut self, m: &mut Machine, deadline_ms: i32) -> Result<bool> {
        self.require_time()?;
        m.mem.add_cycles(12);
        Ok((m.now().as_micros() / 1_000) < deadline_ms.max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tics_energy::ContinuousPower;
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::{Executor, MachineConfig};

    /// A two-task pipeline: task 0 accumulates, task 1 publishes.
    const TASK_PROGRAM: &str = "
        nv int cur_task;
        nv int done;
        int acc;
        int out;
        int task_work() {
            for (int i = 0; i < 50; i++) { acc = acc + 1; }
            return 1;
        }
        int task_publish() {
            out = acc;
            send(out);
            done = 1;
            return 0;
        }
        int main() {
            while (done == 0) {
                if (cur_task == 0) { cur_task = task_work(); }
                else { cur_task = task_publish(); }
            }
            return out;
        }";

    fn task_machine(src: &str, tasks: &[&str], flavor: TaskFlavor) -> Machine {
        let mut prog = compile(src, OptLevel::O1).unwrap();
        passes::instrument_task_based(
            &mut prog,
            tasks,
            flavor.runtime_text_bytes(),
            flavor.runtime_data_bytes(),
        )
        .unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    #[test]
    fn pipeline_completes_on_continuous_power() {
        let mut m = task_machine(
            TASK_PROGRAM,
            &["task_work", "task_publish"],
            TaskFlavor::Alpaca,
        );
        let mut rt = TaskKernel::new(TaskFlavor::Alpaca);
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(50));
        assert_eq!(m.stats().sends(), vec![50]);
    }

    #[test]
    fn tasks_restart_idempotently_across_failures() {
        let mut m = task_machine(
            TASK_PROGRAM,
            &["task_work", "task_publish"],
            TaskFlavor::Alpaca,
        );
        let mut rt = TaskKernel::new(TaskFlavor::Alpaca);
        // The first period kills task_work mid-way; the second is long
        // enough for the task to restart and the pipeline to finish. (A
        // task must fit within one on-period — the task-sizing burden the
        // paper describes.)
        let mut supply = tics_energy::RecordedTrace::new([(6_000, 200), (200_000, 0)]);
        let out = Executor::new()
            .with_time_budget(500_000_000)
            .run(&mut m, &mut rt, &mut supply)
            .unwrap();
        // task_work was interrupted; privatized increments were rolled
        // back, so the final accumulator is exactly 50.
        assert_eq!(out.exit_code(), Some(50));
        assert!(m.stats().power_failures > 0);
        assert!(m.stats().undo_rollbacks > 0);
    }

    #[test]
    fn rejects_pointer_programs() {
        let mut prog = compile(
            "int a[4];
             int task_t() { int *p = a; *p = 1; return 0; }
             int main() { task_t(); return 0; }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_task_based(&mut prog, &["task_t"], 0, 0).unwrap();
        let rt = TaskKernel::new(TaskFlavor::Alpaca);
        let err = rt.check_program(&prog).unwrap_err();
        assert!(err.to_string().contains("pointers"));
    }

    #[test]
    fn rejects_recursive_programs() {
        let mut prog = compile(
            "int task_r(int n) { if (n == 0) return 0; return task_r(n - 1); }
             int main() { task_r(3); return 0; }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_task_based(&mut prog, &["task_r"], 0, 0).unwrap();
        assert!(TaskKernel::new(TaskFlavor::Ink)
            .check_program(&prog)
            .is_err());
    }

    #[test]
    fn oversized_task_traps() {
        let mut prog = compile(
            "int big[600];
             int task_huge() {
                 for (int i = 0; i < 600; i++) { big[i] = i; }
                 return 0;
             }
             int main() { task_huge(); return 0; }",
            OptLevel::O1,
        )
        .unwrap();
        passes::instrument_task_based(&mut prog, &["task_huge"], 0, 0).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TaskKernel::new(TaskFlavor::Alpaca);
        let err = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap_err();
        assert!(err.to_string().contains("privatization"));
    }

    #[test]
    fn time_support_matches_table5() {
        let mut m = Machine::new(
            {
                let mut p = compile("int main() { return 0; }", OptLevel::O1).unwrap();
                p.instrumentation = Instrumentation::TaskBased;
                p
            },
            MachineConfig::default(),
        )
        .unwrap();
        assert!(TaskKernel::new(TaskFlavor::Alpaca)
            .timely_check(&mut m, 100)
            .is_err());
        assert!(TaskKernel::new(TaskFlavor::Ink)
            .timely_check(&mut m, 100)
            .is_ok());
        assert!(TaskKernel::new(TaskFlavor::Mayfly)
            .timely_check(&mut m, 100)
            .is_ok());
    }

    fn clobber(m: &mut Machine, buf: Addr) {
        let a = buf.offset(tics_vm::persist::DELTA_HEADER + 2);
        let b = m.mem.peek_slice(a, 1).unwrap()[0];
        m.mem.poke_bytes(a, &[b ^ 0x10]).unwrap();
    }

    #[test]
    fn corrupt_banks_fall_back_then_fresh_start() {
        let mut m = task_machine(
            TASK_PROGRAM,
            &["task_work", "task_publish"],
            TaskFlavor::Alpaca,
        );
        let mut rt = TaskKernel::new(TaskFlavor::Alpaca);
        Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        let banks = rt.ckpt.banks().unwrap();
        let flag = m.mem.peek_word(banks.flag).unwrap();
        assert!(flag == 1 || flag == 2, "a boundary must have committed");
        let (active, other) = if flag == 1 {
            (banks.a, banks.b)
        } else {
            (banks.b, banks.a)
        };
        clobber(&mut m, active);
        let action = rt.on_boot(&mut m).unwrap();
        assert!(matches!(action, ResumeAction::Restored));
        assert_eq!(m.stats().recoveries, 1);
        assert_eq!(
            m.mem.peek_word(banks.flag).unwrap(),
            if flag == 1 { 2 } else { 1 }
        );
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

    #[test]
    fn capabilities_rows_match_table5() {
        let alpaca = TaskKernel::new(TaskFlavor::Alpaca).capabilities();
        assert!(!alpaca.pointer_support && !alpaca.recursion_support);
        assert!(!alpaca.timely_execution);
        assert_eq!(alpaca.porting_effort, PortingEffort::High);
        let ink = TaskKernel::new(TaskFlavor::Ink).capabilities();
        assert!(ink.timely_execution);
        let mayfly = TaskKernel::new(TaskFlavor::Mayfly).capabilities();
        assert!(mayfly.timely_execution);
    }
}
