//! Adversarial power-failure fault injection with a crash-consistency
//! oracle.
//!
//! The trace-driven experiments only ever cut power on a fixed cadence,
//! so a runtime's recovery protocol is exercised at a handful of
//! accidental alignments. This module instead drives each run from a
//! [`FaultPlan`] — power dies at *chosen* absolute cycles — and judges
//! the survivors against a golden run on continuous power:
//!
//! 1. **Golden run** — the program runs to completion without failures;
//!    its externally visible events (`send`/`mark`, the simulation's
//!    logic-analyzer trace) and exit code are recorded.
//! 2. **Faulted replay** — the same image reruns under an
//!    [`AdversarialSupply`]. The machine arms a torn-write boundary at
//!    each period deadline, so multi-word stores straddling a cut
//!    commit only a prefix.
//! 3. **Oracle** — the replay's event stream, segmented at each power
//!    failure, must be *idempotent-prefix-equivalent* to the golden
//!    trace: every post-reboot segment must replay from some position
//!    at or before the high-water mark of golden progress. Duplicated
//!    suffixes (re-execution from a checkpoint) are legal; events that
//!    match no golden prefix are a memory-consistency violation.
//! 4. **Shrinking** — a violating multi-cut plan is greedily reduced to
//!    a minimal cut set that still violates, so the journal carries a
//!    directly replayable counterexample.
//!
//! Live-lock (no new checkpoint and no new visible event across many
//! consecutive reboots, e.g. a checkpoint that cannot fit in the
//! on-period) is reported as a *diagnosis*, distinct from a memory
//! violation — the run never lies about state, it just never advances.

use std::sync::Arc;

use tics_apps::build::{build_program, make_runtime};
use tics_apps::SystemUnderTest;
use tics_clock::PerfectClock;
use tics_energy::{AdversarialSupply, ContinuousPower, Corruption, FaultPlan, Tail};
use tics_mcu::CorruptionModel;
use tics_minic::opt::OptLevel;
use tics_minic::Program;
use tics_trace::{TraceEvent, TraceRecord};
use tics_vm::{
    Executor, IntermittentRuntime, Machine, MachineConfig, MachineImage, RunOutcome, VmError,
};

use crate::sweep::{panic_text, recycled_machine, splitmix64};

/// Outage injected after each planned cut (µs). Strictly positive so
/// post-reboot events can never share a timestamp with the failure.
pub const OFF_US: u64 = 150;

/// Reboots without progress before the executor's guard calls it a
/// live-lock.
pub const GUARD_BOOTS: u64 = 48;

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

/// A deliberately small, fully deterministic program corpus for fault
/// injection. None of these touch `sample()`/`rand16()`/time syscalls:
/// host-side sensor and RNG positions are not rolled back by a
/// checkpoint restore, so any nondeterminism would blame the runtime
/// for divergence it did not cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultProgram {
    /// `nv` scalars and a small `nv` histogram with WAR-heavy updates.
    NvAccumulator,
    /// A Lehmer generator streaming values over `send` — one corrupted
    /// state word derails every later event.
    LcgStream,
    /// Windowed min/max over a synthetic series (greenhouse-monitor
    /// shape), mixing `mark` and `send` events.
    GhmMini,
    /// Pointer-walk writes through a volatile buffer guarded by an `nv`
    /// commit counter (exercises pointer-conservative instrumentation).
    PtrJournal,
    /// Recursive checksum accumulated into `nv` state.
    RecChecksum,
    /// Sample → transform → emit pipeline; also available as a
    /// hand-ported task graph for the task kernels.
    TaskPipeline,
    /// 12 KB of `nv` state mutated in long silent loops: whole-state
    /// checkpointers cannot commit inside a short on-period, which is
    /// what the live-lock probe demonstrates.
    BigState,
}

const NV_ACCUMULATOR_SRC: &str = "
nv int acc;
nv int steps;
nv int hist[8];
int main() {
    for (int i = 0; i < 40; i++) {
        acc = acc + i;
        hist[i % 8] = hist[i % 8] + acc;
        steps = steps + 1;
        if (i % 8 == 7) { send(acc); send(hist[7]); }
    }
    send(acc);
    send(steps);
    return acc;
}
";

const NV_ACCUMULATOR_TASK_SRC: &str = "
nv int cur_task;
nv int i;
nv int acc;
nv int steps;
nv int hist[8];
int task_step() {
    acc = acc + i;
    hist[i % 8] = hist[i % 8] + acc;
    steps = steps + 1;
    i = i + 1;
    if (i % 8 == 0) { return 1; }
    return 0;
}
int task_emit() {
    send(acc);
    send(hist[7]);
    return 0;
}
int main() {
    while (i < 40) {
        if (cur_task == 0) { cur_task = task_step(); }
        else { cur_task = task_emit(); }
    }
    send(acc);
    send(steps);
    return acc;
}
";

const NV_ACCUMULATOR_TASKS: &[&str] = &["task_step", "task_emit"];

const LCG_STREAM_SRC: &str = "
nv int lcg;
nv int emitted;
int main() {
    lcg = 1;
    for (int i = 0; i < 60; i++) {
        lcg = (lcg * 75 + 74) % 65537;
        if (i % 6 == 5) { send(lcg); emitted = emitted + 1; }
    }
    send(emitted);
    return lcg % 32768;
}
";

const LCG_STREAM_TASK_SRC: &str = "
nv int cur_task;
nv int i;
nv int lcg;
nv int emitted;
int task_seed() {
    lcg = 1;
    return 1;
}
int task_step() {
    lcg = (lcg * 75 + 74) % 65537;
    i = i + 1;
    if (i % 6 == 0) { return 2; }
    return 1;
}
int task_emit() {
    send(lcg);
    emitted = emitted + 1;
    return 1;
}
int main() {
    while (i < 60) {
        if (cur_task == 0) { cur_task = task_seed(); }
        else {
            if (cur_task == 1) { cur_task = task_step(); }
            else { cur_task = task_emit(); }
        }
    }
    send(emitted);
    return lcg % 32768;
}
";

const LCG_STREAM_TASKS: &[&str] = &["task_seed", "task_step", "task_emit"];

const GHM_MINI_SRC: &str = "
nv int mn;
nv int mx;
nv int w;
int main() {
    int x = 7;
    mn = 9999;
    mx = 0 - 9999;
    for (int i = 0; i < 48; i++) {
        x = (x * 31 + 17) % 101;
        if (x < mn) { mn = x; }
        if (x > mx) { mx = x; }
        w = w + 1;
        if (i % 12 == 11) {
            send(mn);
            send(mx);
            mark(1);
            mn = 9999;
            mx = 0 - 9999;
        }
    }
    send(w);
    return w;
}
";

const PTR_JOURNAL_SRC: &str = "
int buf[16];
nv int commits;
int main() {
    int *p = buf;
    for (int r = 0; r < 6; r++) {
        for (int i = 0; i < 16; i++) { *(p + i) = r * 16 + i + commits; }
        int s = 0;
        for (int i = 0; i < 16; i++) { s = s + *(p + i); }
        commits = commits + 1;
        send(s);
    }
    send(commits);
    return commits;
}
";

const REC_CHECKSUM_SRC: &str = "
nv int total;
int rec(int n) {
    if (n == 0) { return 0; }
    return n + rec(n - 1);
}
int main() {
    for (int r = 1; r < 9; r++) {
        total = total + rec(r + 4);
        send(total);
    }
    return total;
}
";

const TASK_PIPELINE_SRC: &str = "
nv int raw;
nv int cooked;
nv int emitted;
int main() {
    for (int u = 0; u < 12; u++) {
        raw = u * 7 + 3;
        cooked = cooked + raw * raw % 97;
        send(cooked);
        emitted = emitted + 1;
    }
    send(emitted);
    return cooked;
}
";

const TASK_PIPELINE_TASK_SRC: &str = "
nv int cur_task;
nv int u;
nv int raw;
nv int cooked;
nv int emitted;
int task_sample() {
    raw = u * 7 + 3;
    return 1;
}
int task_cook() {
    cooked = cooked + raw * raw % 97;
    return 2;
}
int task_emit() {
    send(cooked);
    emitted = emitted + 1;
    u = u + 1;
    return 0;
}
int main() {
    while (u < 12) {
        if (cur_task == 0) { cur_task = task_sample(); }
        else {
            if (cur_task == 1) { cur_task = task_cook(); }
            else { cur_task = task_emit(); }
        }
    }
    send(emitted);
    return cooked;
}
";

const TASK_PIPELINE_TASKS: &[&str] = &["task_sample", "task_cook", "task_emit"];

const BIG_STATE_SRC: &str = "
nv int blob[3000];
nv int done;
int main() {
    for (int r = 0; r < 3; r++) {
        for (int i = 0; i < 3000; i++) { blob[i] = blob[i] + i + r; }
        mark(1);
    }
    done = blob[0] + blob[2999];
    send(done);
    return done % 32768;
}
";

impl FaultProgram {
    /// The whole corpus, grid order.
    pub const ALL: [FaultProgram; 7] = [
        FaultProgram::NvAccumulator,
        FaultProgram::LcgStream,
        FaultProgram::GhmMini,
        FaultProgram::PtrJournal,
        FaultProgram::RecChecksum,
        FaultProgram::TaskPipeline,
        FaultProgram::BigState,
    ];

    /// Journal label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultProgram::NvAccumulator => "nv-accumulator",
            FaultProgram::LcgStream => "lcg-stream",
            FaultProgram::GhmMini => "ghm-mini",
            FaultProgram::PtrJournal => "ptr-journal",
            FaultProgram::RecChecksum => "rec-checksum",
            FaultProgram::TaskPipeline => "task-pipeline",
            FaultProgram::BigState => "big-state",
        }
    }

    /// Parses a journal label back into a program.
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultProgram> {
        FaultProgram::ALL.into_iter().find(|p| p.name() == name)
    }

    fn legacy_src(self) -> &'static str {
        match self {
            FaultProgram::NvAccumulator => NV_ACCUMULATOR_SRC,
            FaultProgram::LcgStream => LCG_STREAM_SRC,
            FaultProgram::GhmMini => GHM_MINI_SRC,
            FaultProgram::PtrJournal => PTR_JOURNAL_SRC,
            FaultProgram::RecChecksum => REC_CHECKSUM_SRC,
            FaultProgram::TaskPipeline => TASK_PIPELINE_SRC,
            FaultProgram::BigState => BIG_STATE_SRC,
        }
    }

    fn task_src(self) -> Option<(&'static str, &'static [&'static str])> {
        match self {
            FaultProgram::NvAccumulator => Some((NV_ACCUMULATOR_TASK_SRC, NV_ACCUMULATOR_TASKS)),
            FaultProgram::LcgStream => Some((LCG_STREAM_TASK_SRC, LCG_STREAM_TASKS)),
            FaultProgram::TaskPipeline => Some((TASK_PIPELINE_TASK_SRC, TASK_PIPELINE_TASKS)),
            _ => None,
        }
    }
}

/// Builds (compiles + instruments) a corpus program for `system` at
/// `-O1` under the per-system rules of
/// [`tics_apps::build::build_program`]: task kernels get the hand-ported
/// task graph (loop-free task bodies, so MayFly accepts them too),
/// everything else runs the legacy source.
///
/// # Errors
///
/// Returns a human-readable reason for the infeasible cells (no task
/// port, recursion on Chinchilla) and for compile failures.
pub fn build_fault_program(
    program: FaultProgram,
    system: SystemUnderTest,
) -> Result<Program, String> {
    let no_port = format!(
        "{} has no task-graph port (pointer or recursion shape)",
        program.name()
    );
    let task = program.task_src().ok_or(no_port.as_str());
    build_program(system, program.legacy_src(), task, corpus_opt(system)).map_err(|e| e.to_string())
}

/// The optimization level the oracle corpora build at for `system`.
pub(crate) fn corpus_opt(system: SystemUnderTest) -> OptLevel {
    system.toolchain_opt(OptLevel::O1)
}

// ---------------------------------------------------------------------
// Event traces and the golden run
// ---------------------------------------------------------------------

/// One externally visible event. The oracle compares event *values*,
/// never timestamps — a faulted run is slower than the golden run by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// `mark(id)` completion.
    Mark(i32),
    /// `send(value)` transmission.
    Send(i32),
    /// Sensor sample taken.
    Sample(i32),
    /// `print(value)` output.
    Print(i32),
    /// `led(x)` toggle.
    Led(i32),
    /// `uart_tx(byte)` — the byte left the pin (`torn` marks a byte the
    /// power deadline cut mid-symbol; it is still wire-visible garbage).
    UartTx {
        /// The byte driven onto the TX line.
        byte: u8,
        /// Whether the power deadline tore the byte mid-symbol.
        torn: bool,
    },
    /// An I2C bus phase (`start`/`write`/`read`/`stop`/`reset`) with its
    /// payload byte and the device's ACK.
    I2c {
        /// The bus phase.
        op: tics_trace::I2cPhase,
        /// Address or data byte carried by the phase.
        value: u8,
        /// Whether the device acknowledged.
        ack: bool,
    },
}

impl Event {
    /// The oracle-comparable form of an externally visible trace event
    /// ([`TraceEvent::is_externally_visible`] — the same fold the
    /// executor's forward-progress guard counts through, so the two can
    /// never disagree about what "visible" means). `None` for everything
    /// the outside world cannot see.
    #[must_use]
    pub fn from_trace(ev: &TraceEvent) -> Option<Event> {
        match *ev {
            TraceEvent::Mark { id } => Some(Event::Mark(id)),
            TraceEvent::Send { value } => Some(Event::Send(value)),
            TraceEvent::Sample { value } => Some(Event::Sample(value)),
            TraceEvent::Print { value } => Some(Event::Print(value)),
            TraceEvent::Led { value } => Some(Event::Led(value)),
            TraceEvent::UartTx { byte, torn } => Some(Event::UartTx { byte, torn }),
            TraceEvent::I2cOp { op, value, ack } => Some(Event::I2c { op, value, ack }),
            _ => None,
        }
    }
}

/// The run's visible events in emission order, with true wall-clock
/// timestamps (µs), folded out of the structured trace.
#[must_use]
pub fn event_timeline(records: &[TraceRecord]) -> Vec<(u64, Event)> {
    let mut v: Vec<(u64, Event)> = records
        .iter()
        .filter_map(|r| Event::from_trace(&r.event).map(|e| (r.at_us, e)))
        .collect();
    debug_assert_eq!(
        v.len() as u64,
        tics_trace::visible_event_count(records),
        "oracle event fold and visibility fold must agree"
    );
    // Events are at least one cycle apart in practice; the secondary key
    // keeps the merge deterministic regardless.
    v.sort_by_key(|&(t, e)| (t, e));
    v
}

/// The event stream split at each power failure: segment `k` holds the
/// events emitted between reboot `k` and failure `k` (the final segment
/// runs to the end). An event stamped exactly at a failure time
/// completed on the dying edge and belongs *before* the cut; post-reboot
/// events are at least `off_us` later.
#[must_use]
pub fn segmented_events(records: &[TraceRecord]) -> Vec<Vec<Event>> {
    let failure_times: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::PowerFailure { .. }))
        .map(|r| r.at_us)
        .collect();
    let timeline = event_timeline(records);
    let mut segments = Vec::with_capacity(failure_times.len() + 1);
    let mut it = timeline.into_iter().peekable();
    for &f in &failure_times {
        let mut seg = Vec::new();
        while let Some(&(t, e)) = it.peek() {
            if t > f {
                break;
            }
            seg.push(e);
            it.next();
        }
        segments.push(seg);
    }
    segments.push(it.map(|(_, e)| e).collect());
    segments
}

/// The reference trace: what the program does when power never fails.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Visible events in order.
    pub events: Vec<Event>,
    /// Exit code of the completed run.
    pub exit_code: i32,
    /// On-time cycles the golden run took — the fault-plan span.
    pub on_cycles: u64,
}

/// The one golden capture behind [`golden_run`] and
/// [`crate::periph::periph_golden`]: runs `prog` under `system` on
/// continuous power and hands back the machine that ran with its exit
/// code.
///
/// # Errors
///
/// A golden run that does not finish is a corpus or runtime bug, not a
/// fault-injection result — it is reported as a string error.
pub(crate) fn golden_machine(
    prog: &Program,
    system: SystemUnderTest,
) -> Result<(Machine, i32), String> {
    let mut m = Machine::new(prog.clone(), MachineConfig::default())
        .map_err(|e| format!("golden load failed: {e}"))?;
    let mut rt = make_runtime(system, prog);
    let out = Executor::new().with_time_budget(30_000_000_000).run(
        &mut m,
        rt.as_mut(),
        &mut ContinuousPower::new(),
    );
    match out {
        Ok(RunOutcome::Finished(code)) => Ok((m, code)),
        Ok(other) => Err(format!("golden run did not finish: {other:?}")),
        Err(e) => Err(format!("golden run trapped: {e}")),
    }
}

/// Runs `prog` under `system` on continuous power and records the
/// golden trace.
///
/// # Errors
///
/// A golden run that does not finish is a corpus or runtime bug, not a
/// fault-injection result — it is reported as a string error.
pub fn golden_run(prog: &Program, system: SystemUnderTest) -> Result<Golden, String> {
    let (m, exit_code) = golden_machine(prog, system)?;
    Ok(Golden {
        events: event_timeline(m.trace().records())
            .into_iter()
            .map(|(_, e)| e)
            .collect(),
        exit_code,
        on_cycles: m.cycles(),
    })
}

// ---------------------------------------------------------------------
// Faulted trials and the oracle
// ---------------------------------------------------------------------

/// One faulted replay: outcome plus everything the oracle needs.
#[derive(Debug)]
pub struct Trial {
    /// How the executor finished (or the error it surfaced).
    pub outcome: Result<RunOutcome, VmError>,
    /// The run's recorded trace (timeline events; the oracle's input).
    pub trace: Vec<TraceRecord>,
    /// Power failures injected during the run.
    pub power_failures: u64,
    /// Stores truncated at a power cut (word-granularity torn writes).
    pub torn_writes: u64,
    /// Stores bit-flipped or dropped by the brown-out corruption model
    /// (zero unless the plan carries a [`Corruption`] spec).
    pub corrupted_writes: u64,
    /// Checkpoint-bank recoveries the runtime performed (CRC-detected
    /// corruption healed by falling back to the older bank or to a
    /// fresh start).
    pub recoveries: u64,
    /// On-time cycles consumed.
    pub cycles: u64,
}

/// The replay budget formula over a golden run's `on_cycles`, shared by
/// [`fault_budget_us`] and [`crate::periph::periph_budget_us`].
pub(crate) fn replay_budget_us(on_cycles: u64) -> u64 {
    on_cycles.saturating_mul(64).saturating_add(10_000_000)
}

/// On-time budget for a faulted replay of `golden`: generous enough
/// that any completing runtime completes, small enough that a wedged
/// replay terminates.
#[must_use]
pub fn fault_budget_us(golden: &Golden) -> u64 {
    replay_budget_us(golden.on_cycles)
}

/// The per-cell replay rig behind every faulted trial ([`run_plan`],
/// [`crate::periph::run_periph_plan`] and the cell drivers): builds the
/// cell's [`MachineImage`] once, then keeps one machine and one runtime
/// and recycles both across trials with [`Machine::reset`] and
/// [`IntermittentRuntime::recycle`], as the fleet engine does across
/// devices. A recycled trial is indistinguishable from a fresh one
/// (`tests/machine_recycling.rs` compares them field for field), so a
/// cell's verdicts do not depend on how many trials share the rig.
pub struct ReplayRig<'p> {
    prog: &'p Program,
    system: SystemUnderTest,
    image: Result<Arc<MachineImage>, VmError>,
    seed: u64,
    machine: Option<Machine>,
    runtime: Option<Box<dyn IntermittentRuntime>>,
}

impl<'p> ReplayRig<'p> {
    /// A rig for `prog` under `system` on [`MachineConfig::default`]. A
    /// program that does not load is not an error here: every trial
    /// reports the load error as its outcome.
    #[must_use]
    pub fn new(prog: &'p Program, system: SystemUnderTest) -> ReplayRig<'p> {
        let config = MachineConfig::default();
        ReplayRig {
            prog,
            system,
            image: MachineImage::build(prog.clone(), &config),
            seed: config.seed,
            machine: None,
            runtime: None,
        }
    }

    /// Replays the program with power dying per `plan`.
    pub fn run(&mut self, plan: &FaultPlan, budget_us: u64, guard_boots: u64) -> Trial {
        self.replay(plan, budget_us, guard_boots, |_| ()).0
    }

    /// One faulted replay: recycles (or on first use builds) the machine
    /// and runtime, arms the plan's brown-out [`CorruptionModel`], and
    /// runs the runtime on a fresh [`AdversarialSupply`] under
    /// `budget_us` and the progress guard. `wire` reads whatever else
    /// the caller's oracle needs off the machine that ran (`None` when
    /// the image failed to load).
    pub(crate) fn replay<W>(
        &mut self,
        plan: &FaultPlan,
        budget_us: u64,
        guard_boots: u64,
        wire: impl FnOnce(&Machine) -> W,
    ) -> (Trial, Option<W>) {
        let loaded = self.image.as_ref().map_err(Clone::clone).and_then(|image| {
            recycled_machine(&mut self.machine, image, self.seed, || {
                Box::new(PerfectClock::new())
            })
        });
        let m = match loaded {
            Ok(m) => m,
            Err(e) => {
                let trial = Trial {
                    outcome: Err(e),
                    trace: Vec::new(),
                    power_failures: 0,
                    torn_writes: 0,
                    corrupted_writes: 0,
                    recoveries: 0,
                    cycles: 0,
                };
                return (trial, None);
            }
        };
        let rt = match &mut self.runtime {
            Some(rt) => {
                rt.recycle();
                rt
            }
            None => self.runtime.insert(make_runtime(self.system, self.prog)),
        };
        if let Some(c) = &plan.corruption {
            m.mem.set_corruption(Some(
                CorruptionModel::new(c.window, c.flip_prob, c.drop_prob, c.seed)
                    .with_sram_decay(c.sram_decay),
            ));
        }
        let mut supply = AdversarialSupply::new(plan.clone());
        // Executing from hardware-corrupted state can drive the VM somewhere
        // its own checks never anticipated (a restored register becomes a
        // wild pc). On silicon that is a fail-stop crash; here the panic is
        // contained and judged as a loud death rather than taking the
        // harness thread down.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new()
                .with_time_budget(budget_us)
                .with_progress_guard(guard_boots)
                .run(m, rt.as_mut(), &mut supply)
        }));
        let crashed = ran.is_err();
        let outcome = ran.unwrap_or_else(|payload| {
            let text = panic_text(payload.as_ref());
            Err(VmError::Trap(format!(
                "vm crashed on corrupted state: {text}"
            )))
        });
        let trial = Trial {
            outcome,
            trace: m.trace().records().to_vec(),
            power_failures: m.stats().power_failures,
            torn_writes: m.mem.stats().torn_writes,
            corrupted_writes: m.mem.stats().corrupted_writes,
            recoveries: m.stats().recoveries,
            cycles: m.cycles(),
        };
        let wire = wire(m);
        if crashed {
            // A panic can leave the machine or the runtime mid-update,
            // where no reset is proven to reach: the next trial starts
            // from scratch.
            self.machine = None;
            self.runtime = None;
        }
        (trial, Some(wire))
    }
}

/// Replays `prog` under `system` with power dying per `plan`: a
/// [`ReplayRig`] used for one trial.
#[must_use]
pub fn run_plan(
    prog: &Program,
    system: SystemUnderTest,
    plan: &FaultPlan,
    budget_us: u64,
    guard_boots: u64,
) -> Trial {
    ReplayRig::new(prog, system).run(plan, budget_us, guard_boots)
}

/// The oracle's judgment of one faulted replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every segment replayed a golden prefix and the run finished with
    /// the golden exit code.
    Consistent,
    /// A post-reboot segment matches no golden position at or before
    /// the progress high-water mark: state was corrupted.
    Divergent {
        /// Index of the offending segment (0 = before the first cut).
        segment: usize,
        /// Golden progress (events) proven before the mismatch.
        matched: usize,
        /// Human-readable mismatch description.
        detail: String,
    },
    /// Events matched but the final exit code did not.
    WrongExit {
        /// Golden exit code.
        expected: i32,
        /// Replay exit code.
        got: i32,
    },
    /// Silent divergence in a trial where the brown-out model corrupted
    /// at least one store: the runtime consumed corrupted state without
    /// detecting it. The detect-or-die failure mode — a runtime is
    /// allowed to heal (fall back to a valid bank), restart fresh, or
    /// trap loudly, but never to keep computing on garbage.
    CorruptedState {
        /// Stores the brown-out model corrupted during the trial.
        corrupted_writes: u64,
        /// The underlying silent-divergence description.
        detail: String,
    },
    /// The replay never finished inside the (generous) budget.
    Incomplete {
        /// Executor outcome text.
        outcome: String,
    },
    /// No checkpoint and no visible event across many consecutive
    /// reboots — a liveness diagnosis, not a memory violation.
    Livelock {
        /// Reboots the guard observed without progress.
        boots: u64,
    },
    /// The replay trapped (a crash is a robustness failure too).
    Error {
        /// Trap description.
        detail: String,
    },
}

impl Verdict {
    /// Short journal label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Consistent => "consistent",
            Verdict::Divergent { .. } => "divergent",
            Verdict::WrongExit { .. } => "wrong-exit",
            Verdict::CorruptedState { .. } => "corrupted-state",
            Verdict::Incomplete { .. } => "incomplete",
            Verdict::Livelock { .. } => "livelock",
            Verdict::Error { .. } => "error",
        }
    }

    /// The verdict's human-readable detail for the journal (empty for
    /// `Consistent` and `Livelock`).
    pub(crate) fn detail(&self) -> String {
        match self {
            Verdict::Divergent { detail, .. }
            | Verdict::CorruptedState { detail, .. }
            | Verdict::Error { detail } => detail.clone(),
            Verdict::WrongExit { expected, got } => format!("expected exit {expected}, got {got}"),
            Verdict::Incomplete { outcome } => outcome.clone(),
            Verdict::Consistent | Verdict::Livelock { .. } => String::new(),
        }
    }

    /// Whether this verdict counts against a memory-consistency claim.
    /// Live-lock is deliberately excluded (liveness, not consistency);
    /// `strict_completion` controls whether a non-finishing replay
    /// counts (it should for plans with a continuous tail, where
    /// nothing stops a healthy runtime from finishing).
    #[must_use]
    pub fn is_violation(&self, strict_completion: bool) -> bool {
        match self {
            Verdict::Divergent { .. }
            | Verdict::WrongExit { .. }
            | Verdict::CorruptedState { .. }
            | Verdict::Error { .. } => true,
            Verdict::Incomplete { .. } => strict_completion,
            Verdict::Consistent | Verdict::Livelock { .. } => false,
        }
    }
}

/// Largest `r ≤ high_water` with `golden[r .. r+seg.len()] == seg`.
/// Preferring the largest sound resume point can only overestimate
/// progress, never invent a match — so it cannot produce a false
/// violation for a correct runtime.
fn match_segment(golden: &[Event], high_water: usize, seg: &[Event]) -> Option<usize> {
    if seg.is_empty() {
        return Some(high_water);
    }
    for r in (0..=high_water).rev() {
        if r + seg.len() <= golden.len() && golden[r..r + seg.len()] == *seg {
            return Some(r);
        }
    }
    None
}

fn describe_mismatch(golden: &Golden, high_water: usize, seg: &[Event]) -> String {
    // Align at the high-water mark for the message — the position a
    // correct resume would replay from at the latest.
    let mut i = 0;
    while i < seg.len()
        && high_water + i < golden.events.len()
        && seg[i] == golden.events[high_water + i]
    {
        i += 1;
    }
    format!(
        "segment event {} is {:?} but golden[{}] is {:?}",
        i,
        seg.get(i),
        high_water + i,
        golden.events.get(high_water + i),
    )
}

/// Judges one faulted replay against the golden trace.
///
/// When the trial ran under a brown-out [`Corruption`] model and at
/// least one store was actually corrupted, silent divergence
/// (`Divergent` / `WrongExit`) is upgraded to
/// [`Verdict::CorruptedState`]: the runtime kept computing on state the
/// hardware damaged, without detecting it. Loud failures (traps) keep
/// their `Error` verdict — dying is an acceptable answer to corruption,
/// lying is not — and `run_chaos_cell` counts them as detections.
#[must_use]
pub fn judge(golden: &Golden, trial: &Trial) -> Verdict {
    match judge_events(golden, trial) {
        v @ (Verdict::Divergent { .. } | Verdict::WrongExit { .. })
            if trial.corrupted_writes > 0 =>
        {
            Verdict::CorruptedState {
                corrupted_writes: trial.corrupted_writes,
                detail: v.detail(),
            }
        }
        v => v,
    }
}

/// The corruption-blind core of [`judge`]: segment matching against the
/// golden trace plus the exit-code check.
fn judge_events(golden: &Golden, trial: &Trial) -> Verdict {
    match &trial.outcome {
        Err(VmError::NoForwardProgress { boots, .. }) => {
            return Verdict::Livelock { boots: *boots }
        }
        Err(e) => {
            return Verdict::Error {
                detail: e.to_string(),
            }
        }
        Ok(_) => {}
    }
    let segments = segmented_events(&trial.trace);
    let mut high_water = 0usize;
    for (index, seg) in segments.iter().enumerate() {
        match match_segment(&golden.events, high_water, seg) {
            Some(r) => high_water = high_water.max(r + seg.len()),
            None => {
                return Verdict::Divergent {
                    segment: index,
                    matched: high_water,
                    detail: describe_mismatch(golden, high_water, seg),
                }
            }
        }
    }
    match &trial.outcome {
        Ok(RunOutcome::Finished(code)) => {
            let code = *code;
            if high_water < golden.events.len() {
                return Verdict::Divergent {
                    segment: segments.len(),
                    matched: high_water,
                    detail: format!(
                        "finished having replayed only {high_water} of {} golden events",
                        golden.events.len()
                    ),
                };
            }
            if code == golden.exit_code {
                Verdict::Consistent
            } else {
                Verdict::WrongExit {
                    expected: golden.exit_code,
                    got: code,
                }
            }
        }
        Ok(RunOutcome::Starved { boots }) => Verdict::Livelock { boots: *boots },
        Ok(other) => Verdict::Incomplete {
            outcome: format!("{other:?}"),
        },
        Err(_) => unreachable!("executor errors are handled before segment matching"),
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily removes cuts from a violating plan while the violation
/// persists, yielding a minimal cut set (1-minimal: removing any single
/// remaining cut makes the violation disappear).
#[must_use]
pub fn shrink_plan(
    prog: &Program,
    system: SystemUnderTest,
    golden: &Golden,
    plan: &FaultPlan,
    budget_us: u64,
    guard_boots: u64,
    strict_completion: bool,
) -> FaultPlan {
    ReplayRig::new(prog, system).shrink(golden, plan, budget_us, guard_boots, strict_completion)
}

impl ReplayRig<'_> {
    /// [`shrink_plan`] on this rig.
    fn shrink(
        &mut self,
        golden: &Golden,
        plan: &FaultPlan,
        budget_us: u64,
        guard_boots: u64,
        strict_completion: bool,
    ) -> FaultPlan {
        let mut current = plan.clone();
        let mut changed = true;
        while changed && current.cuts.len() > 1 {
            changed = false;
            for i in 0..current.cuts.len() {
                let candidate = current.without(i);
                let trial = self.run(&candidate, budget_us, guard_boots);
                if judge(golden, &trial).is_violation(strict_completion) {
                    current = candidate;
                    changed = true;
                    break;
                }
            }
        }
        current
    }
}

// ---------------------------------------------------------------------
// Cut-point strategies and the cell driver
// ---------------------------------------------------------------------

/// How a cell chooses its fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Single-cut plans on an even stride across the golden span —
    /// exhaustive coverage of "power dies once, anywhere".
    Stride,
    /// Seeded multi-cut plans (up to 4 cuts) — compound failures.
    Random,
    /// No planned cuts, a periodic tail instead: the live-lock probe.
    Probe,
}

impl Strategy {
    /// All strategies, grid order.
    pub const ALL: [Strategy; 3] = [Strategy::Stride, Strategy::Random, Strategy::Probe];

    /// Journal label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Stride => "stride",
            Strategy::Random => "random",
            Strategy::Probe => "probe",
        }
    }

    /// Parses a journal label back into a strategy.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether a non-finishing replay counts as a violation under this
    /// strategy. Probe plans keep killing power forever, so a slow
    /// runtime legitimately never finishes.
    #[must_use]
    pub fn strict_completion(self) -> bool {
        !matches!(self, Strategy::Probe)
    }

    /// The plans this strategy runs against `golden`.
    #[must_use]
    pub fn plans(self, golden: &Golden, trials: usize, seed: u64) -> Vec<FaultPlan> {
        match self {
            Strategy::Stride => FaultPlan::sweep(golden.on_cycles, trials as u64, OFF_US),
            Strategy::Random => (0..trials)
                .map(|i| {
                    let s = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    FaultPlan::random(s, golden.on_cycles, 1 + i % 4, OFF_US)
                })
                .collect(),
            // On-periods from just above the paper's S2* progress floor
            // down to "nothing with a whole-state checkpoint survives".
            Strategy::Probe => [2_500u64, 5_000, 8_000, 14_000, 20_000]
                .iter()
                .map(|&on_us| {
                    FaultPlan::new(Vec::new(), 300).with_tail(Tail::Periodic { on_us, off_us: 300 })
                })
                .collect(),
        }
    }
}

/// A violating plan with its shrunk minimal counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The plan as generated.
    pub plan: FaultPlan,
    /// The 1-minimal shrunk plan (equal to `plan` for single cuts).
    pub shrunk: FaultPlan,
    /// Verdict label (`divergent`, `wrong-exit`, ...).
    pub verdict: String,
    /// Mismatch description from the oracle.
    pub detail: String,
}

/// Aggregated verdicts of one (program × system × strategy) cell.
#[derive(Debug, Clone, Default)]
pub struct CellReport {
    /// Golden trace length (events).
    pub golden_events: usize,
    /// Golden on-time span (cycles) — the cut window.
    pub golden_cycles: u64,
    /// Trials executed.
    pub trials: u64,
    /// Verdict tallies.
    pub consistent: u64,
    /// Divergent replays.
    pub divergent: u64,
    /// Finished with the wrong exit code.
    pub wrong_exit: u64,
    /// Silent divergence on hardware-corrupted state (chaos cells only;
    /// always zero when plans carry no corruption spec).
    pub corrupted_state: u64,
    /// Never finished within budget.
    pub incomplete: u64,
    /// Live-lock diagnoses.
    pub livelocks: u64,
    /// Trapped replays.
    pub errors: u64,
    /// Memory-consistency violations (strategy-aware).
    pub violations: u64,
    /// Trials in which at least one store was torn at a cut.
    pub torn_write_trials: u64,
    /// Power failures injected across all trials.
    pub failures_injected: u64,
    /// On-time cycles simulated across all trials.
    pub total_cycles: u64,
    /// First violation found, shrunk for the journal.
    pub first_violation: Option<Violation>,
}

impl CellReport {
    /// The counters a fault cell journals, in journal order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("golden_events", self.golden_events as u64),
            ("golden_cycles", self.golden_cycles),
            ("trials", self.trials),
            ("consistent", self.consistent),
            ("divergent", self.divergent),
            ("wrong_exit", self.wrong_exit),
            ("incomplete", self.incomplete),
            ("livelocks", self.livelocks),
            ("errors", self.errors),
            ("violations", self.violations),
            ("torn_write_trials", self.torn_write_trials),
        ]
    }
}

/// Runs every plan of `strategy` for one cell and judges each replay.
#[must_use]
pub fn run_fault_cell(
    prog: &Program,
    system: SystemUnderTest,
    golden: &Golden,
    strategy: Strategy,
    trials: usize,
    seed: u64,
) -> CellReport {
    let plans = strategy.plans(golden, trials, seed);
    let budget = fault_budget_us(golden);
    let strict = strategy.strict_completion();
    let mut report = CellReport {
        golden_events: golden.events.len(),
        golden_cycles: golden.on_cycles,
        ..CellReport::default()
    };
    let mut rig = ReplayRig::new(prog, system);
    for plan in &plans {
        let trial = rig.run(plan, budget, GUARD_BOOTS);
        let verdict = judge(golden, &trial);
        report.trials += 1;
        report.failures_injected += trial.power_failures;
        report.total_cycles += trial.cycles;
        if trial.torn_writes > 0 {
            report.torn_write_trials += 1;
        }
        match &verdict {
            Verdict::Consistent => report.consistent += 1,
            Verdict::Divergent { .. } => report.divergent += 1,
            Verdict::WrongExit { .. } => report.wrong_exit += 1,
            Verdict::CorruptedState { .. } => report.corrupted_state += 1,
            Verdict::Incomplete { .. } => report.incomplete += 1,
            Verdict::Livelock { .. } => report.livelocks += 1,
            Verdict::Error { .. } => report.errors += 1,
        }
        if verdict.is_violation(strict) {
            report.violations += 1;
            if report.first_violation.is_none() {
                let shrunk = rig.shrink(golden, plan, budget, GUARD_BOOTS, strict);
                report.first_violation = Some(Violation {
                    plan: plan.clone(),
                    shrunk,
                    verdict: verdict.label().to_string(),
                    detail: verdict.detail(),
                });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------
// Chaos cells: brown-out corruption vs the detect-or-die oracle
// ---------------------------------------------------------------------

/// At-risk window (cycles of on-time before each cut) the chaos grid
/// arms. Wide enough that a checkpoint committed anywhere near a cut is
/// exposed; the hardened runtimes read back every staged bank, so width
/// costs them retries, not correctness.
pub const CHAOS_WINDOW: u64 = 4_000;

/// Aggregated verdicts of one (program × system × corruption-rate)
/// chaos cell, judged by the detect-or-die rule: a runtime facing
/// corrupted state may *recover* (finish consistently, healing via CRC
/// fallback), *die loudly* (trap on a failed read-back), or live-lock —
/// but silently computing on garbage is a [`Verdict::CorruptedState`]
/// violation.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: u64,
    /// Finished consistently (recovered or unharmed).
    pub consistent: u64,
    /// Trapped loudly (fail-stop detection — an acceptable death).
    pub detected: u64,
    /// Silent divergence on corrupted state: the oracle's failures.
    pub corrupted_state: u64,
    /// Silent divergence or wrong exit in trials the corruption model
    /// never actually touched (plain torn-write divergence).
    pub clean_divergence: u64,
    /// Live-lock diagnoses.
    pub livelocks: u64,
    /// Never finished inside the budget.
    pub incomplete: u64,
    /// Trials in which the model corrupted at least one store.
    pub corrupted_write_trials: u64,
    /// Stores corrupted across all trials.
    pub corrupted_writes: u64,
    /// CRC-detected bank recoveries the runtime performed.
    pub recoveries: u64,
    /// Power failures injected across all trials.
    pub failures_injected: u64,
    /// Reboots summed over consistent trials (numerator of
    /// [`ChaosReport::mean_reboots_to_recover`]).
    pub reboots_in_consistent: u64,
    /// On-time cycles simulated across all trials.
    pub total_cycles: u64,
    /// Detail of the first corrupted-state verdict, for the journal.
    pub first_corruption: Option<String>,
}

impl ChaosReport {
    /// The counters a chaos cell journals, in journal order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("trials", self.trials),
            ("consistent", self.consistent),
            ("detected", self.detected),
            ("corrupted_state", self.corrupted_state),
            ("clean_divergence", self.clean_divergence),
            ("livelocks", self.livelocks),
            ("incomplete", self.incomplete),
            ("corrupted_write_trials", self.corrupted_write_trials),
            ("corrupted_writes", self.corrupted_writes),
            ("recoveries", self.recoveries),
        ]
    }

    /// Fraction of trials that recovered or died loudly — everything
    /// except silent corruption. The gate demands `1.0` from every
    /// runtime that claims memory consistency.
    #[must_use]
    pub fn detect_or_recover_rate(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        1.0 - self.corrupted_state as f64 / self.trials as f64
    }

    /// Mean reboots a consistent trial took to reach completion — how
    /// many retries self-healing cost.
    #[must_use]
    pub fn mean_reboots_to_recover(&self) -> f64 {
        if self.consistent == 0 {
            return 0.0;
        }
        self.reboots_in_consistent as f64 / self.consistent as f64
    }
}

/// Trial `i`'s plan in a chaos-style cell: `1 + i % 3` cuts drawn from
/// `seed`'s stream over a golden span of `on_cycles`, with brown-out
/// corruption at `rate` riding on every cut when `rate` is given.
#[must_use]
pub fn chaos_plan(seed: u64, i: usize, on_cycles: u64, rate: Option<f64>) -> FaultPlan {
    let s = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let plan = FaultPlan::random(s, on_cycles, 1 + i % 3, OFF_US);
    match rate {
        Some(rate) => {
            plan.with_corruption(Corruption::with_rate(CHAOS_WINDOW, rate, splitmix64(s)))
        }
        None => plan,
    }
}

/// Runs `trials` seeded multi-cut plans with brown-out corruption at
/// `rate` riding on every cut, and folds the detect-or-die verdicts.
/// Deterministic: same seed, same plans, same corruption stream.
#[must_use]
pub fn run_chaos_cell(
    prog: &Program,
    system: SystemUnderTest,
    golden: &Golden,
    rate: f64,
    trials: usize,
    seed: u64,
) -> ChaosReport {
    let budget = fault_budget_us(golden);
    let mut rig = ReplayRig::new(prog, system);
    let mut report = ChaosReport::default();
    for i in 0..trials {
        let plan = chaos_plan(seed, i, golden.on_cycles, Some(rate));
        let trial = rig.run(&plan, budget, GUARD_BOOTS);
        let verdict = judge(golden, &trial);
        report.trials += 1;
        report.failures_injected += trial.power_failures;
        report.total_cycles += trial.cycles;
        report.corrupted_writes += trial.corrupted_writes;
        report.recoveries += trial.recoveries;
        if trial.corrupted_writes > 0 {
            report.corrupted_write_trials += 1;
        }
        match &verdict {
            Verdict::Consistent => {
                report.consistent += 1;
                report.reboots_in_consistent += trial.power_failures;
            }
            Verdict::Error { .. } => report.detected += 1,
            Verdict::CorruptedState { detail, .. } => {
                report.corrupted_state += 1;
                if report.first_corruption.is_none() {
                    report.first_corruption = Some(detail.clone());
                }
            }
            Verdict::Divergent { .. } | Verdict::WrongExit { .. } => {
                report.clean_divergence += 1;
            }
            Verdict::Livelock { .. } => report.livelocks += 1,
            Verdict::Incomplete { .. } => report.incomplete += 1,
        }
    }
    report
}

/// Formats a plan's cuts for the journal (`"1200,8400"`).
#[must_use]
pub fn cuts_string(plan: &FaultPlan) -> String {
    plan.cuts
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a journal cut string back into cycles (`""` is a plan with no
/// cuts).
///
/// # Errors
///
/// Names the first token that is not a cycle count: a row read back
/// from a journal on disk is outside input, and a silently shortened
/// plan would replay a different counterexample.
pub fn parse_cuts(s: &str) -> Result<Vec<u64>, String> {
    if s.trim().is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.trim()
                .parse()
                .map_err(|_| format!("cut {t:?} in {s:?} is not a cycle count"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_of(p: FaultProgram, system: SystemUnderTest) -> (Program, Golden) {
        let prog = build_fault_program(p, system).unwrap();
        let golden = golden_run(&prog, system).unwrap();
        (prog, golden)
    }

    fn send(value: i32, at_us: u64) -> TraceRecord {
        TraceRecord {
            at_us,
            cycle: at_us,
            event: TraceEvent::Send { value },
        }
    }

    fn failure(at_us: u64) -> TraceRecord {
        TraceRecord {
            at_us,
            cycle: at_us,
            event: TraceEvent::PowerFailure { off_us: OFF_US },
        }
    }

    #[test]
    fn golden_runs_emit_events_on_every_feasible_system() {
        for &p in &[FaultProgram::NvAccumulator, FaultProgram::LcgStream] {
            for system in SystemUnderTest::ALL {
                let prog = match build_fault_program(p, system) {
                    Ok(prog) => prog,
                    Err(_) => continue,
                };
                let golden = golden_run(&prog, system)
                    .unwrap_or_else(|e| panic!("{} x {}: {e}", p.name(), system.name()));
                assert!(
                    !golden.events.is_empty(),
                    "{} x {}",
                    p.name(),
                    system.name()
                );
                assert!(golden.on_cycles > 0);
            }
        }
    }

    #[test]
    fn oracle_accepts_idempotent_replay() {
        let golden = Golden {
            events: vec![Event::Send(1), Event::Send(2), Event::Send(3)],
            exit_code: 7,
            on_cycles: 100,
        };
        // Replay re-emits event 2 after a reboot — a legal duplicate.
        let trace = vec![
            send(1, 10),
            send(2, 20),
            failure(30),
            send(2, 40),
            send(3, 50),
        ];
        let trial = Trial {
            outcome: Ok(RunOutcome::Finished(7)),
            trace,
            power_failures: 1,
            torn_writes: 0,
            corrupted_writes: 0,
            recoveries: 0,
            cycles: 60,
        };
        assert_eq!(judge(&golden, &trial), Verdict::Consistent);
    }

    #[test]
    fn oracle_flags_divergent_replay() {
        let golden = Golden {
            events: vec![Event::Send(1), Event::Send(2), Event::Send(3)],
            exit_code: 7,
            on_cycles: 100,
        };
        // After the reboot the replay emits 9 — matching no golden
        // prefix at or before the high-water mark.
        let trace = vec![send(1, 10), failure(30), send(9, 40), send(3, 50)];
        let trial = Trial {
            outcome: Ok(RunOutcome::Finished(7)),
            trace,
            power_failures: 1,
            torn_writes: 0,
            corrupted_writes: 0,
            recoveries: 0,
            cycles: 60,
        };
        match judge(&golden, &trial) {
            Verdict::Divergent { segment, .. } => assert_eq!(segment, 1),
            v => panic!("expected divergence, got {v:?}"),
        }
    }

    #[test]
    fn oracle_flags_lost_events_and_wrong_exit() {
        let golden = Golden {
            events: vec![Event::Send(1), Event::Send(2)],
            exit_code: 7,
            on_cycles: 100,
        };
        let lost = Trial {
            outcome: Ok(RunOutcome::Finished(7)),
            trace: vec![send(1, 10)],
            power_failures: 0,
            torn_writes: 0,
            corrupted_writes: 0,
            recoveries: 0,
            cycles: 60,
        };
        assert!(matches!(judge(&golden, &lost), Verdict::Divergent { .. }));

        let wrong = Trial {
            outcome: Ok(RunOutcome::Finished(8)),
            trace: vec![send(1, 10), send(2, 20)],
            power_failures: 0,
            torn_writes: 0,
            corrupted_writes: 0,
            recoveries: 0,
            cycles: 60,
        };
        assert_eq!(
            judge(&golden, &wrong),
            Verdict::WrongExit {
                expected: 7,
                got: 8
            }
        );
    }

    #[test]
    fn naive_diverges_and_tics_passes_the_same_shrunk_plan() {
        // The headline result: sweep cut points over naive-mementos,
        // find a reproducible divergence, shrink it, then replay the
        // minimal plan under TICS — which must stay consistent.
        let (naive_prog, naive_golden) =
            golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Mementos);
        let report = run_fault_cell(
            &naive_prog,
            SystemUnderTest::Mementos,
            &naive_golden,
            Strategy::Stride,
            40,
            0xF417,
        );
        assert!(
            report.violations > 0,
            "naive checkpointing must diverge somewhere in the sweep: {report:?}"
        );
        let violation = report.first_violation.expect("violation recorded");
        assert!(!violation.shrunk.cuts.is_empty());

        // Same program image shape, same cut plan, TICS runtime.
        let (tics_prog, tics_golden) =
            golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Tics);
        let trial = run_plan(
            &tics_prog,
            SystemUnderTest::Tics,
            &violation.shrunk,
            fault_budget_us(&tics_golden),
            GUARD_BOOTS,
        );
        let verdict = judge(&tics_golden, &trial);
        assert_eq!(
            verdict,
            Verdict::Consistent,
            "TICS on {:?}",
            violation.shrunk
        );
    }

    #[test]
    fn tics_survives_a_stride_sweep() {
        let (prog, golden) = golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Tics);
        let report = run_fault_cell(
            &prog,
            SystemUnderTest::Tics,
            &golden,
            Strategy::Stride,
            32,
            0xF417,
        );
        assert_eq!(report.violations, 0, "{report:?}");
        assert_eq!(report.trials, 32);
    }

    #[test]
    fn whole_state_checkpointing_livelocks_under_short_periods() {
        // 12 KB of nv state means a naive checkpoint costs ~12.5 ms —
        // it can never commit inside a 8 ms on-period, and the long
        // silent loops emit no events either: the probe diagnoses
        // live-lock instead of blaming memory.
        let (prog, golden) = golden_of(FaultProgram::BigState, SystemUnderTest::Mementos);
        let plan = FaultPlan::new(Vec::new(), 300).with_tail(Tail::Periodic {
            on_us: 8_000,
            off_us: 300,
        });
        let trial = run_plan(
            &prog,
            SystemUnderTest::Mementos,
            &plan,
            fault_budget_us(&golden),
            GUARD_BOOTS,
        );
        assert!(
            matches!(judge(&golden, &trial), Verdict::Livelock { .. }),
            "got {:?}",
            judge(&golden, &trial)
        );
    }

    #[test]
    fn shrinker_reduces_random_plans_to_minimal_cut_sets() {
        let (prog, golden) = golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Mementos);
        // A plan with several cuts, at least one of which lands in the
        // pre-first-checkpoint window and diverges.
        let span = golden.on_cycles;
        let plan = FaultPlan::new(vec![span / 4, span / 2, 3 * span / 4], OFF_US);
        let budget = fault_budget_us(&golden);
        let trial = run_plan(&prog, SystemUnderTest::Mementos, &plan, budget, GUARD_BOOTS);
        if judge(&golden, &trial).is_violation(true) {
            let shrunk = shrink_plan(
                &prog,
                SystemUnderTest::Mementos,
                &golden,
                &plan,
                budget,
                GUARD_BOOTS,
                true,
            );
            assert!(!shrunk.cuts.is_empty() && shrunk.cuts.len() <= plan.cuts.len());
            let replay = run_plan(
                &prog,
                SystemUnderTest::Mementos,
                &shrunk,
                budget,
                GUARD_BOOTS,
            );
            assert!(judge(&golden, &replay).is_violation(true));
        }
    }

    #[test]
    fn silent_divergence_upgrades_to_corrupted_state_only_under_corruption() {
        let golden = Golden {
            events: vec![Event::Send(1), Event::Send(2), Event::Send(3)],
            exit_code: 7,
            on_cycles: 100,
        };
        let diverging_trace = vec![send(1, 10), failure(30), send(9, 40), send(3, 50)];
        let clean = Trial {
            outcome: Ok(RunOutcome::Finished(7)),
            trace: diverging_trace.clone(),
            power_failures: 1,
            torn_writes: 1,
            corrupted_writes: 0,
            recoveries: 0,
            cycles: 60,
        };
        assert!(matches!(judge(&golden, &clean), Verdict::Divergent { .. }));

        let dirty = Trial {
            corrupted_writes: 3,
            ..Trial {
                outcome: Ok(RunOutcome::Finished(7)),
                trace: diverging_trace,
                power_failures: 1,
                torn_writes: 1,
                corrupted_writes: 0,
                recoveries: 0,
                cycles: 60,
            }
        };
        match judge(&golden, &dirty) {
            Verdict::CorruptedState {
                corrupted_writes, ..
            } => assert_eq!(corrupted_writes, 3),
            v => panic!("expected corrupted-state, got {v:?}"),
        }
        assert!(judge(&golden, &dirty).is_violation(false));
        assert_eq!(judge(&golden, &dirty).label(), "corrupted-state");
    }

    #[test]
    fn naive_corrupts_silently_where_tics_detects_or_recovers() {
        // The chaos headline: under brown-out corruption the naive
        // whole-state checkpointer restores flipped banks and keeps
        // going (silent corrupted-state), while TICS's CRC-validated
        // double banks either heal or trap — never lie.
        let (naive_prog, naive_golden) =
            golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Mementos);
        let naive = run_chaos_cell(
            &naive_prog,
            SystemUnderTest::Mementos,
            &naive_golden,
            0.4,
            24,
            0xC0FF,
        );
        assert!(
            naive.corrupted_write_trials > 0,
            "corruption model never fired: {naive:?}"
        );
        assert!(
            naive.corrupted_state > 0,
            "naive checkpointing must silently consume corruption somewhere: {naive:?}"
        );

        let (tics_prog, tics_golden) =
            golden_of(FaultProgram::NvAccumulator, SystemUnderTest::Tics);
        let tics = run_chaos_cell(
            &tics_prog,
            SystemUnderTest::Tics,
            &tics_golden,
            0.4,
            24,
            0xC0FF,
        );
        assert_eq!(tics.corrupted_state, 0, "{tics:?}");
        assert!(
            (tics.detect_or_recover_rate() - 1.0).abs() < f64::EPSILON,
            "{tics:?}"
        );
        assert!(
            tics.corrupted_write_trials > 0,
            "TICS trials must actually face corruption: {tics:?}"
        );
    }

    #[test]
    fn cuts_roundtrip_through_the_journal_format() {
        let plan = FaultPlan::new(vec![1_200, 8_400], 150);
        assert_eq!(cuts_string(&plan), "1200,8400");
        assert_eq!(parse_cuts(&cuts_string(&plan)), Ok(vec![1_200, 8_400]));
        let golden = Golden {
            events: Vec::new(),
            exit_code: 0,
            on_cycles: 50_000,
        };
        for strategy in Strategy::ALL {
            for plan in strategy.plans(&golden, 16, 0xF417) {
                assert_eq!(
                    parse_cuts(&cuts_string(&plan)),
                    Ok(plan.cuts),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn parse_cuts_rejects_garbage_and_reads_empty_as_no_cuts() {
        let err = parse_cuts("12,x,40").expect_err("garbage token");
        assert!(err.contains("\"x\""), "{err}");
        assert!(parse_cuts("12,,40").is_err());
        assert_eq!(parse_cuts(""), Ok(Vec::new()));
    }

    #[test]
    fn strategies_round_trip_through_their_names() {
        for strategy in Strategy::ALL {
            assert_eq!(Strategy::from_name(strategy.name()), Some(strategy));
        }
        assert_eq!(Strategy::from_name("strided"), None);
    }
}
