//! Differential equivalence: decoded fast dispatch vs the reference
//! interpreter.
//!
//! The decoded engine is only allowed to change *host-side* work —
//! dispatch and bounds-check overhead. Everything observable about the
//! simulated device must be bit-identical to the reference interpreter:
//! the trace event stream, the cycle counter, per-span cycle
//! attribution, execution and memory statistics, the final contents of
//! SRAM and FRAM, and the run outcome (including trap text and panic
//! text from runs on corrupted state).
//!
//! Every test here runs the same image twice — once per engine, with
//! freshly built machine/runtime/supply — and compares full machine
//! snapshots. The grids cover the seven fault-corpus programs and the
//! Table 1 applications across the legacy-capable systems, under
//! continuous power, periodic intermittent power, adversarial fault
//! plans with torn writes, brown-out store corruption, and
//! ISR-configured machines. Voltage-warning stops are checked on ISR
//! machines and in fused zones. The ISR, TICS's timer checkpoints and
//! its `@expires` timers are stops: the decoded engine fires or calls
//! them only there, the reference polls them around every instruction,
//! and short odd periods check that both act on the same instruction.

use tics_apps::build::{build_app, build_program, make_runtime, App, Scale, SystemUnderTest};
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_clock::{PerfectClock, RemanenceTimer, Timekeeper};
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::{
    AdversarialSupply, ContinuousPower, Corruption, FaultPlan, PeriodicTrace, PowerSupply,
};
use tics_mcu::memory::MemoryStats;
use tics_mcu::CorruptionModel;
use tics_minic::isa::Instr;
use tics_minic::opt::OptLevel;
use tics_minic::{compile, Program};
use tics_trace::{CkptCause, SpanKind, TraceEvent, TraceRecord};
use tics_vm::{
    BareRuntime, DispatchEngine, ExecStats, Executor, IntermittentRuntime, Machine, MachineConfig,
    RunOutcome,
};

/// Generous on-time budget: every grid cell either finishes or is
/// diagnosed (starved / budget-exhausted) well inside this.
const BUDGET_US: u64 = 50_000_000;

/// Reboots without progress before a run is declared starved. Both
/// engines must starve at the identical boot count.
const GUARD_BOOTS: u64 = 48;

/// Legacy-capable systems (the task kernels run different images and
/// are exercised by the fault/chaos suites, not this grid).
const SYSTEMS: [SystemUnderTest; 5] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Mementos,
    SystemUnderTest::Tics,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ratchet,
];

/// TICS with short, odd timer periods (µs). A timer checkpoint can
/// outlast the shortest, which leaves the next stop already in the
/// past: the runtime then acts after the next instruction, not at once.
const TIMER_PERIODS_US: [u64; 3] = [97, 331, 1009];

/// A TICS runtime for `prog` whose checkpoint timer fires every
/// `period_us`.
fn tics_with_timer(prog: &Program, period_us: u64) -> Box<dyn IntermittentRuntime> {
    let config = TicsConfig::s2_star()
        .fitted_to(prog)
        .with_timer(Some(period_us));
    Box::new(TicsRuntime::new(config))
}

// ---------------------------------------------------------------------
// Snapshot plumbing
// ---------------------------------------------------------------------

/// Everything observable about a finished run. Two engines agree iff
/// their snapshots are equal field-for-field.
#[derive(Debug)]
struct Snapshot {
    outcome: String,
    trace: Vec<TraceRecord>,
    cycles: u64,
    stats: ExecStats,
    mem_stats: MemoryStats,
    span: [u64; SpanKind::COUNT],
    sram: Vec<u8>,
    fram: Vec<u8>,
}

/// A rebuildable power-supply spec (each engine run needs a fresh one).
#[derive(Debug, Clone)]
enum Supply {
    Continuous,
    Periodic { on_us: u64, off_us: u64 },
    Adversarial(FaultPlan),
}

impl Supply {
    fn build(&self) -> Box<dyn PowerSupply> {
        match self {
            Supply::Continuous => Box::new(ContinuousPower::new()),
            Supply::Periodic { on_us, off_us } => Box::new(PeriodicTrace::new(*on_us, *off_us)),
            Supply::Adversarial(plan) => Box::new(AdversarialSupply::new(plan.clone())),
        }
    }
}

/// The device's timekeeper (each engine run needs a fresh one).
#[derive(Debug, Clone, Copy, Default)]
enum Clock {
    #[default]
    Perfect,
    /// Off-times estimated with ±25% error: across outages device time
    /// drifts away from cycles plus true off-time.
    Drifting,
}

impl Clock {
    fn build(self) -> Box<dyn Timekeeper> {
        match self {
            Clock::Perfect => Box::new(PerfectClock::new()),
            Clock::Drifting => Box::new(RemanenceTimer::new(10_000_000, 0.25, 0xD21F)),
        }
    }
}

/// What the device itself does wrong: its timekeeper's drift and
/// brown-out store corruption.
#[derive(Debug, Clone, Copy, Default)]
struct Device<'a> {
    clock: Clock,
    corruption: Option<&'a Corruption>,
}

/// The executor every grid runs under unless it tests a stop boundary.
fn grid_executor() -> Executor {
    Executor::new()
        .with_time_budget(BUDGET_US)
        .with_progress_guard(GUARD_BOOTS)
}

/// Runs `exec` over a fresh machine/runtime/supply and snapshots the
/// observable state. Panics from executing corrupted state are
/// contained and compared as text, exactly like the fault harness.
fn run_one(
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    exec: &Executor,
    supply: &Supply,
    device: Device,
) -> Snapshot {
    let mut m = Machine::with_clock(prog.clone(), cfg.clone(), device.clock.build())
        .expect("machine construction");
    if let Some(c) = device.corruption {
        m.mem.set_corruption(Some(
            CorruptionModel::new(c.window, c.flip_prob, c.drop_prob, c.seed)
                .with_sram_decay(c.sram_decay),
        ));
    }
    let mut rt = rt_of();
    let mut sup = supply.build();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.run(&mut m, rt.as_mut(), sup.as_mut())
    }));
    let outcome = match result {
        Ok(Ok(o)) => format!("{o:?}"),
        Ok(Err(e)) => format!("error: {e}"),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("panic: {text}")
        }
    };
    let layout = *m.mem.layout();
    let sram = m
        .mem
        .peek_slice(layout.sram.start, layout.sram.len())
        .expect("SRAM dump")
        .to_vec();
    let fram = m
        .mem
        .peek_slice(layout.fram.start, layout.fram.len())
        .expect("FRAM dump")
        .to_vec();
    Snapshot {
        outcome,
        trace: m.trace().records().to_vec(),
        cycles: m.cycles(),
        stats: m.stats().clone(),
        mem_stats: m.mem.stats(),
        span: m.mem.span_cycles_all(),
        sram,
        fram,
    }
}

/// Runs `exec` under both engines and asserts snapshot equality,
/// reporting the first diverging trace event for debuggability. Returns
/// the reference snapshot.
fn assert_engines_agree(
    label: &str,
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    exec: &Executor,
    supply: &Supply,
    device: Device,
) -> Snapshot {
    let run = |engine| {
        let exec = exec.clone().with_engine(engine);
        run_one(prog, cfg, rt_of, &exec, supply, device)
    };
    let reference = run(DispatchEngine::Reference);
    let decoded = run(DispatchEngine::Decoded);

    if reference.trace != decoded.trace {
        let i = reference
            .trace
            .iter()
            .zip(&decoded.trace)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reference.trace.len().min(decoded.trace.len()));
        panic!(
            "[{label}] trace diverges at event {i}:\n  reference: {:?}\n  decoded:   {:?}\n  (lengths {} vs {})",
            reference.trace.get(i),
            decoded.trace.get(i),
            reference.trace.len(),
            decoded.trace.len(),
        );
    }
    assert_eq!(reference.outcome, decoded.outcome, "[{label}] outcome");
    assert_eq!(reference.cycles, decoded.cycles, "[{label}] cycle counter");
    assert_eq!(reference.stats, decoded.stats, "[{label}] exec stats");
    assert_eq!(
        reference.mem_stats, decoded.mem_stats,
        "[{label}] memory stats"
    );
    assert_eq!(
        reference.span, decoded.span,
        "[{label}] span cycle attribution"
    );
    assert!(
        reference.sram == decoded.sram,
        "[{label}] final SRAM contents differ"
    );
    assert!(
        reference.fram == decoded.fram,
        "[{label}] final FRAM contents differ"
    );
    reference
}

/// The fault-corpus grid: every feasible (program, system) image.
fn fault_grid() -> Vec<(String, Program, SystemUnderTest)> {
    let mut cells = Vec::new();
    for program in FaultProgram::ALL {
        for system in SYSTEMS {
            match build_fault_program(program, system) {
                Ok(prog) => cells.push((format!("{}/{:?}", program.name(), system), prog, system)),
                Err(_) => continue, // infeasible (e.g. recursion on Chinchilla)
            }
        }
    }
    assert!(cells.len() >= 30, "fault grid unexpectedly sparse");
    cells
}

// ---------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------

#[test]
fn fault_corpus_agrees_on_continuous_power() {
    let cfg = MachineConfig::default();
    for (label, prog, system) in fault_grid() {
        assert_engines_agree(
            &format!("{label}/continuous"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &grid_executor(),
            &Supply::Continuous,
            Device::default(),
        );
    }
}

#[test]
fn fault_corpus_agrees_on_intermittent_power() {
    let cfg = MachineConfig::default();
    // Two on-period lengths: one roomy (few reboots), one tight enough
    // that whole-state checkpointers starve on the big-state program —
    // both engines must starve at the identical boot.
    for (on_us, off_us) in [(60_000, 200), (9_000, 150)] {
        for (label, prog, system) in fault_grid() {
            assert_engines_agree(
                &format!("{label}/periodic-{on_us}"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &grid_executor(),
                &Supply::Periodic { on_us, off_us },
                Device::default(),
            );
        }
    }
}

#[test]
fn fault_corpus_agrees_under_adversarial_cuts_and_corruption() {
    let cfg = MachineConfig::default();
    for (idx, (label, prog, system)) in fault_grid().into_iter().enumerate() {
        // Anchor the cuts to the run's own length: a continuous run
        // measures total cycles, then power dies at 1/4, 1/2, and 3/4
        // of that — guaranteed mid-execution cuts with torn-write
        // boundaries armed. (Engine choice is immaterial here: the
        // continuous-power test proves cycle equality.)
        let golden = run_one(
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &grid_executor().with_engine(DispatchEngine::Decoded),
            &Supply::Continuous,
            Device::default(),
        );
        let total = golden.cycles.max(8);
        let plan = FaultPlan::new(vec![total / 4, total / 2, 3 * total / 4], 150);

        // Torn writes only.
        assert_engines_agree(
            &format!("{label}/adversarial"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &grid_executor(),
            &Supply::Adversarial(plan.clone()),
            Device::default(),
        );

        // Torn writes plus brown-out corruption: at-risk stores flip or
        // drop, SRAM decays across outages. The corruption RNG stream
        // advances per intercepted store, so agreement here proves the
        // decoded engine issues the identical store sequence.
        let corruption = Corruption::with_rate(2_000, 0.5, 0xC0FF_EE00 ^ idx as u64);
        assert_engines_agree(
            &format!("{label}/corrupted"),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &grid_executor(),
            &Supply::Adversarial(plan),
            Device {
                corruption: Some(&corruption),
                ..Device::default()
            },
        );
    }
}

#[test]
fn table1_apps_agree_across_engines() {
    let cfg = MachineConfig::default();
    for app in [App::Ar, App::Bc, App::Cuckoo, App::Ghm] {
        for system in SYSTEMS {
            let opt = if system == SystemUnderTest::Chinchilla {
                OptLevel::O0
            } else {
                OptLevel::O2
            };
            let Ok(prog) = build_app(app, system, opt, Scale(8)) else {
                continue; // infeasible combination
            };
            let label = format!("{}/{system:?}", app.name());
            assert_engines_agree(
                &format!("{label}/continuous"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &grid_executor(),
                &Supply::Continuous,
                Device::default(),
            );
            assert_engines_agree(
                &format!("{label}/periodic"),
                &prog,
                &cfg,
                &|| make_runtime(system, &prog),
                &grid_executor(),
                &Supply::Periodic {
                    on_us: 40_000,
                    off_us: 200,
                },
                Device::default(),
            );
        }
    }
}

/// ISR periods (µs): odd ones beside a round one, so the ISR's stop
/// falls on and between TICS's timer stops.
const ISR_PERIODS_US: [u64; 4] = [97, 331, 700, 1009];

/// A machine whose ISR fires every `period_us` of device time.
fn isr_program(system: SystemUnderTest, period_us: u64) -> (Program, MachineConfig) {
    let src = "
        nv int ticks;
        nv int acc;
        int on_tick() {
            ticks = ticks + 1;
            return 0;
        }
        int main() {
            for (int i = 0; i < 600; i++) {
                acc = acc + i * 3;
                if (i % 64 == 63) { send(acc); }
            }
            send(ticks);
            return acc;
        }
    ";
    let prog =
        build_program(system, src, Err("no task port"), OptLevel::O2).expect("build ISR program");
    let cfg = MachineConfig {
        isr: Some(("on_tick".to_string(), period_us)),
        ..MachineConfig::default()
    };
    (prog, cfg)
}

/// The ISR is a stop in device time: the decoded engine runs fused
/// zones up to it, the reference polls it before every instruction.
/// A drifting timekeeper on intermittent power checks that the stop is
/// converted from device time, not read as a cycle.
#[test]
fn isr_machine_runs_fused_and_agrees() {
    let periodic = Supply::Periodic {
        on_us: 5_000,
        off_us: 150,
    };
    let drifting = Device {
        clock: Clock::Drifting,
        ..Device::default()
    };
    let envs = [
        ("continuous", Supply::Continuous, Device::default()),
        ("periodic", periodic.clone(), Device::default()),
        ("periodic-drift", periodic, drifting),
    ];
    for isr_us in ISR_PERIODS_US {
        let (prog, cfg) = isr_program(SystemUnderTest::PlainC, isr_us);
        let (tics, tics_cfg) = isr_program(SystemUnderTest::Tics, isr_us);
        for &(env, ref supply, device) in &envs {
            let mut snaps = vec![assert_engines_agree(
                &format!("isr-{isr_us}/bare/{env}"),
                &prog,
                &cfg,
                &|| Box::new(BareRuntime::new()),
                &grid_executor(),
                supply,
                device,
            )];
            // TICS's timer stops interleave with ISR entries and exits;
            // a 331 µs timer shares boundaries with the 331 µs ISR.
            let timers: &[u64] = if isr_us == 700 {
                &TIMER_PERIODS_US
            } else {
                &[331]
            };
            for &period in timers {
                snaps.push(assert_engines_agree(
                    &format!("isr-{isr_us}/tics/timer-{period}/{env}"),
                    &tics,
                    &tics_cfg,
                    &|| tics_with_timer(&tics, period),
                    &grid_executor(),
                    supply,
                    device,
                ));
            }
            for snap in snaps {
                assert!(
                    snap.trace
                        .iter()
                        .any(|r| matches!(r.event, TraceEvent::IsrEnter)),
                    "isr-{isr_us}/{env}: the ISR never fired"
                );
            }
        }
    }
}

/// `i32::MIN / -1` and `i32::MIN % -1` overflow. The optimizer must leave
/// them in the code, so they trap at run time at every level, and both
/// engines must trap with the same text.
#[test]
fn overflowing_division_traps_on_both_engines() {
    for (op, text) in [
        ('/', "division by zero or overflow"),
        ('%', "remainder by zero or overflow"),
    ] {
        let src = format!("int main() {{ int q = (-2147483647 - 1) {op} -1; return q; }}");
        for level in [OptLevel::O0, OptLevel::O2] {
            let prog = compile(&src, level).expect("compile overflow program");
            for engine in [DispatchEngine::Reference, DispatchEngine::Decoded] {
                let snap = run_one(
                    &prog,
                    &MachineConfig::default(),
                    &|| Box::new(BareRuntime::new()),
                    &grid_executor().with_engine(engine),
                    &Supply::Continuous,
                    Device::default(),
                );
                assert_eq!(
                    snap.outcome,
                    format!("error: trap: {text}"),
                    "{op} at {level} on {engine:?}"
                );
            }
        }
    }
}

/// Runs `prog` on intermittent power under both engines with each
/// voltage-warning stop armed: the low-voltage warning 900 µs before
/// each power failure, and only 40 µs before it (so the checkpoint it
/// triggers runs past the deadline). Every stop must land on the same
/// instruction under both engines.
fn assert_stops_agree(
    label: &str,
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    supply: &Supply,
) {
    for (stop, exec) in [
        ("voltage", grid_executor().with_voltage_warning(900)),
        ("late-voltage", grid_executor().with_voltage_warning(40)),
    ] {
        assert_engines_agree(
            &format!("{label}/{stop}"),
            prog,
            cfg,
            rt_of,
            &exec,
            supply,
            Device::default(),
        );
    }
}

#[test]
fn isr_periods_and_fused_zones_agree_at_voltage_warning_stops() {
    let cfg = MachineConfig::default();
    let supply = Supply::Periodic {
        on_us: 9_000,
        off_us: 150,
    };
    // TICS and MementOS checkpoint on the warning from fused zones (TICS
    // with its 10 ms timer stop armed too); on the ISR machine the
    // warning and the ISR's stop share the zones.
    for (program, system) in FaultProgram::ALL
        .into_iter()
        .flat_map(|p| [(p, SystemUnderTest::Tics), (p, SystemUnderTest::Mementos)])
    {
        let prog = build_fault_program(program, system).expect("the fault corpus builds");
        assert_stops_agree(
            &format!("{}/{system:?}", program.name()),
            &prog,
            &cfg,
            &|| make_runtime(system, &prog),
            &supply,
        );
    }
    let (prog, cfg) = isr_program(SystemUnderTest::PlainC, 700);
    assert_stops_agree(
        "isr/bare",
        &prog,
        &cfg,
        &|| Box::new(BareRuntime::new()),
        &Supply::Periodic {
            on_us: 5_000,
            off_us: 150,
        },
    );
}

/// Two `@expires_after = 1ms` probes. The block body, a loop that grows
/// every round, outlives what is left of the TTL once the checkpoint
/// sealing the timestamp has committed. In the quiet probe the expiry
/// timer aborts the body into the catch arm. In the loud one the body
/// `send`s in its first iteration, so its output has escaped and the
/// expiry is defused: the block runs to its normal end.
fn expiry_probes() -> Vec<(String, Program)> {
    let probe = |output: &str| {
        format!(
            "@expires_after = 1ms
             int t;
             nv int acc;
             nv int caught;
             int main() {{
                 for (int r = 0; r < 8; r++) {{
                     t @= sample();
                     @expires(t) {{
                         int s = 0;
                         for (int i = 0; i < 2 * r; i++) {{
                             {output}
                             s = s + t + i * 3;
                         }}
                         acc = acc + s;
                     }} catch {{
                         caught = caught + 1;
                     }}
                 }}
                 send(acc);
                 return caught;
             }}"
        )
    };
    [
        ("expiry-quiet", ""),
        ("expiry-loud", "if (i == 0) send(s);"),
    ]
    .into_iter()
    .map(|(name, output)| {
        let prog = build_program(
            SystemUnderTest::Tics,
            &probe(output),
            Err("no task port"),
            OptLevel::O2,
        )
        .expect("the expiry probe builds");
        (name.to_string(), prog)
    })
    .collect()
}

#[test]
fn tics_runtime_stops_land_where_per_instruction_polling_acts() {
    let mut programs: Vec<(String, Program)> = FaultProgram::ALL
        .into_iter()
        .map(|p| {
            let prog = build_fault_program(p, SystemUnderTest::Tics).expect("the corpus builds");
            (p.name().to_string(), prog)
        })
        .collect();
    for app in [App::Ar, App::Bc, App::Cuckoo, App::Ghm] {
        let prog = build_app(app, SystemUnderTest::Tics, OptLevel::O2, Scale(8))
            .expect("TICS runs every Table 1 app");
        programs.push((app.name().to_string(), prog));
    }
    programs.extend(expiry_probes());
    let periodic = Supply::Periodic {
        on_us: 9_000,
        off_us: 150,
    };
    let runs = [
        ("continuous", grid_executor(), Supply::Continuous),
        ("periodic", grid_executor(), periodic.clone()),
        (
            "voltage",
            grid_executor().with_voltage_warning(900),
            periodic,
        ),
    ];
    let cfg = MachineConfig::default();
    let (mut timer_commits, mut catches) = (0, 0);
    for (name, prog) in &programs {
        for period in TIMER_PERIODS_US {
            for (run, exec, supply) in &runs {
                let label = format!("{name}/timer-{period}/{run}");
                let rt_of = || tics_with_timer(prog, period);
                let snap = assert_engines_agree(
                    &label,
                    prog,
                    &cfg,
                    &rt_of,
                    exec,
                    supply,
                    Device::default(),
                );
                for r in &snap.trace {
                    match r.event {
                        TraceEvent::CheckpointCommit {
                            cause: CkptCause::Timer,
                            ..
                        } => timer_commits += 1,
                        TraceEvent::ExpiresCatch => catches += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(timer_commits > 0, "no timer checkpoint committed");
    assert!(catches > 0, "no expiry timer fired");
}

/// A short loop of FRAM stores on a machine whose ISR fires every
/// `period_us`: many zone stops in a run a few thousand cycles long.
fn short_isr_program(system: SystemUnderTest, period_us: u64) -> (Program, MachineConfig) {
    let src = "
        nv int ticks;
        nv int acc;
        int on_tick() {
            ticks = ticks + 1;
            return 0;
        }
        int main() {
            for (int i = 0; i < 40; i++) {
                acc = acc + i * 3;
            }
            send(acc);
            return ticks;
        }
    ";
    let prog = build_program(system, src, Err("no task port"), OptLevel::O2)
        .expect("build the short ISR program");
    let cfg = MachineConfig {
        isr: Some(("on_tick".to_string(), period_us)),
        ..MachineConfig::default()
    };
    (prog, cfg)
}

/// Puts a power cut at every cycle within `reach` of the first two ISR
/// stops and the first checkpoint stop of `prog`'s continuous run, and
/// asserts that both engines agree on each. Returns how many ISR and
/// checkpoint stops it found.
fn assert_cuts_around_stops_agree(
    label: &str,
    prog: &Program,
    cfg: &MachineConfig,
    rt_of: &dyn Fn() -> Box<dyn IntermittentRuntime>,
    reach: u64,
) -> (usize, usize) {
    // A stop's zone ends where the ISR enters or the runtime's
    // checkpoint span opens; span events are recorded only in a
    // detailed trace.
    let mut m = Machine::new(prog.clone(), cfg.clone()).expect("machine construction");
    m.trace_mut().set_detailed(true);
    let outcome = grid_executor().with_engine(DispatchEngine::Decoded).run(
        &mut m,
        rt_of().as_mut(),
        &mut ContinuousPower::new(),
    );
    assert!(
        matches!(outcome, Ok(RunOutcome::Finished(_))),
        "{label}: {outcome:?}"
    );
    let stops = |checkpoint: bool| -> Vec<u64> {
        m.trace()
            .records()
            .iter()
            .filter(|r| match r.event {
                TraceEvent::IsrEnter => !checkpoint,
                TraceEvent::SpanEnter {
                    kind: SpanKind::Checkpoint,
                } => checkpoint,
                _ => false,
            })
            .map(|r| r.cycle)
            .collect()
    };
    let (isr, checkpoint) = (stops(false), stops(true));
    let chosen = isr.iter().take(2).chain(checkpoint.iter().take(1));
    for &stop in chosen {
        for cut in stop - reach..=stop + reach {
            assert_engines_agree(
                &format!("{label}/cut-{cut}"),
                prog,
                cfg,
                rt_of,
                &grid_executor(),
                &Supply::Adversarial(FaultPlan::new(vec![cut], 150)),
                Device::default(),
            );
        }
    }
    (isr.len().min(2), checkpoint.len().min(1))
}

/// How far past a zone's stop its last op can reach: `instr_base` plus
/// the program's largest word count for one op (a call copies its
/// arguments and writes three header words) at the dearest word cost.
fn zone_reach(prog: &Program) -> u64 {
    let costs = tics_mcu::CostModel::default();
    let machine = Machine::new(prog.clone(), MachineConfig::default()).expect("machine");
    let words = machine.loaded().decoded.max_op_words;
    costs.instr_base
        + words
            * costs
                .sram_access_per_word
                .max(costs.fram_read_per_word)
                .max(costs.fram_write_per_word)
}

/// Power cuts at every cycle of a window around burst-zone stops. A
/// zone whose stores cannot reach the armed cut skips the torn-store
/// test; one whose stores can, runs it, and hands every call and return
/// to the reference. The bound between the two lies [`zone_reach`]
/// cycles past the zone's stop, so windows that wide on both sides of
/// the ISR's stops and of TICS's checkpoint stops put cuts on both
/// sides of it: both kinds of zone run, and every store must commit or
/// tear exactly where the reference's does. The call-heavy program's
/// three-argument call widens its window.
#[test]
fn cuts_around_zone_stops_tear_as_the_reference_does() {
    let (bare, bare_cfg) = short_isr_program(SystemUnderTest::PlainC, 97);
    let found = assert_cuts_around_stops_agree(
        "bare",
        &bare,
        &bare_cfg,
        &|| Box::new(BareRuntime::new()),
        zone_reach(&bare),
    );
    assert_eq!(found, (2, 0), "bare: zone stops found");
    // TICS runs without the ISR: it checkpoints after every return from
    // interrupt, and with a 97 µs ISR it would never finish.
    let (tics, _) = short_isr_program(SystemUnderTest::Tics, 97);
    let found = assert_cuts_around_stops_agree(
        "tics",
        &tics,
        &MachineConfig::default(),
        &|| tics_with_timer(&tics, 331),
        zone_reach(&tics),
    );
    assert_eq!(found, (0, 1), "tics: zone stops found");
    let calls = calls_program(SystemUnderTest::PlainC);
    let reach = zone_reach(&calls);
    assert!(reach > zone_reach(&bare), "the calls widen the reach");
    let cfg = MachineConfig {
        isr: Some(("tick".to_string(), 97)),
        ..MachineConfig::default()
    };
    let found = assert_cuts_around_stops_agree(
        "calls",
        &calls,
        &cfg,
        &|| Box::new(BareRuntime::new()),
        reach,
    );
    assert_eq!(found, (2, 0), "calls: zone stops found");
}

// ---------------------------------------------------------------------
// Calls and returns inside burst zones
// ---------------------------------------------------------------------

/// A call-heavy program: a three-argument callee (its argument copy is
/// longer than the atomic write buffer), a helper that calls another,
/// recursion, and an ISR, `tick`, that calls a helper too.
const CALLS_SRC: &str = "
    nv int acc;
    nv int ticks;
    int add3(int a, int b, int c) { return a + b * 3 + c; }
    int leaf(int x) { return x ^ 85; }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    int tick() { ticks = ticks + leaf(ticks); return 0; }
    int main() {
        int s = 0;
        for (int i = 0; i < 24; i++) {
            s = s + add3(i, s & 7, mid(i));
            acc = acc + fib(i % 7);
        }
        send(s);
        send(acc);
        return s & 65535;
    }
";

/// [`CALLS_SRC`] built for `system`.
fn calls_program(system: SystemUnderTest) -> Program {
    build_program(system, CALLS_SRC, Err("no task port"), OptLevel::O2)
        .expect("the call-heavy program builds")
}

/// Plain C that records where every instruction starts: the reference
/// engine calls `on_stop` after every instruction, when the cycle
/// counter and pc are those of the next one.
struct Recorder(Vec<(u64, u32)>);

impl IntermittentRuntime for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn capabilities(&self) -> tics_vm::RuntimeCapabilities {
        BareRuntime.capabilities()
    }

    fn instrumentation(&self) -> tics_minic::program::Instrumentation {
        BareRuntime.instrumentation()
    }

    fn on_boot(&mut self, m: &mut Machine) -> tics_vm::Result<tics_vm::ResumeAction> {
        BareRuntime.on_boot(m)
    }

    fn checkpoint(
        &mut self,
        _m: &mut Machine,
        _kind: tics_vm::CheckpointKind,
    ) -> tics_vm::Result<()> {
        Ok(())
    }

    fn on_stop(&mut self, m: &mut Machine) -> tics_vm::Result<()> {
        self.0.push((m.cycles(), m.regs.pc));
        Ok(())
    }
}

/// The cycles at which `prog`'s continuous run on the reference engine
/// starts its first `n` calls and its first `n` returns to a caller
/// (`main`'s own return excluded).
fn call_and_return_starts(prog: &Program, n: usize) -> Vec<u64> {
    let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("machine");
    let mut rec = Recorder(Vec::new());
    let outcome = grid_executor().with_engine(DispatchEngine::Reference).run(
        &mut m,
        &mut rec,
        &mut ContinuousPower::new(),
    );
    assert!(
        matches!(outcome, Ok(RunOutcome::Finished(_))),
        "{outcome:?}"
    );
    let code = &m.loaded().code;
    let main = m.loaded().owner[m.loaded().entry_of(prog.entry) as usize];
    let starts = |want: fn(&Instr) -> bool| {
        rec.0
            .iter()
            .filter(|&&(_, pc)| want(&code[pc as usize]))
            .filter(|&&(_, pc)| {
                m.loaded().owner[pc as usize] != main || code[pc as usize] != Instr::Ret
            })
            .map(|&(c, _)| c)
            .take(n)
            .collect::<Vec<_>>()
    };
    let mut v = starts(|i| matches!(i, Instr::Call(_)));
    v.extend(starts(|i| *i == Instr::Ret));
    assert_eq!(v.len(), 2 * n, "too few calls and returns");
    v
}

/// Deep recursion overflows the frame stack from inside a zone: SRAM
/// under plain C, Ratchet's FRAM stack under Ratchet (whose end is not
/// the end of FRAM). Both engines raise the same `StackOverflow`.
#[test]
fn recursion_overflowing_the_frame_stack_agrees() {
    let src = "int deep(int n) { int pad[8]; pad[0] = n; if (n == 0) return 0; return deep(n - 1) + pad[0]; }
               int main() { return deep(400); }";
    for system in [SystemUnderTest::PlainC, SystemUnderTest::Ratchet] {
        let prog = build_program(system, src, Err("no task port"), OptLevel::O2)
            .expect("the recursion builds");
        let snap = assert_engines_agree(
            &format!("deep/{system:?}"),
            &prog,
            &MachineConfig::default(),
            &|| make_runtime(system, &prog),
            &grid_executor(),
            &Supply::Continuous,
            Device::default(),
        );
        assert!(
            snap.outcome.contains("stack overflow"),
            "{system:?}: {}",
            snap.outcome
        );
    }
}

/// Calls and returns that start exactly on an ISR stop, a period
/// deadline and a voltage-warning stop, and one cycle to either side:
/// a zone runs a call or a return only while its stop has not passed.
#[test]
fn calls_and_returns_at_stops_agree() {
    let prog = calls_program(SystemUnderTest::PlainC);
    let bare = || -> Box<dyn IntermittentRuntime> { Box::new(BareRuntime::new()) };
    for start in call_and_return_starts(&prog, 3) {
        for at in start - 1..=start + 1 {
            let isr = MachineConfig {
                isr: Some(("tick".to_string(), at)),
                ..MachineConfig::default()
            };
            let label = format!("calls/at-{at}");
            assert_engines_agree(
                &format!("{label}/isr"),
                &prog,
                &isr,
                &bare,
                &grid_executor(),
                &Supply::Continuous,
                Device::default(),
            );
            assert_engines_agree(
                &format!("{label}/deadline"),
                &prog,
                &MachineConfig::default(),
                &bare,
                &grid_executor(),
                &Supply::Adversarial(FaultPlan::new(vec![at], 150)),
                Device::default(),
            );
            assert_engines_agree(
                &format!("{label}/voltage"),
                &prog,
                &MachineConfig::default(),
                &bare,
                &grid_executor().with_voltage_warning(400),
                &Supply::Adversarial(FaultPlan::new(vec![at + 400], 150)),
                Device::default(),
            );
        }
    }
}

/// Plain C whose ISR entry finds `sp` one word low, as a corrupted
/// restore can leave it, and whose return from interrupt puts it back.
/// Fired on a return site, the ISR frame's header then names a caller
/// whose `sp` agrees with that site's depth, so only the ISR-frame rule
/// keeps the return from interrupt out of the zone.
struct LowIsrSp;

impl IntermittentRuntime for LowIsrSp {
    fn name(&self) -> &'static str {
        "low-isr-sp"
    }

    fn capabilities(&self) -> tics_vm::RuntimeCapabilities {
        BareRuntime.capabilities()
    }

    fn instrumentation(&self) -> tics_minic::program::Instrumentation {
        BareRuntime.instrumentation()
    }

    fn on_boot(&mut self, m: &mut Machine) -> tics_vm::Result<tics_vm::ResumeAction> {
        BareRuntime.on_boot(m)
    }

    fn checkpoint(
        &mut self,
        _m: &mut Machine,
        _kind: tics_vm::CheckpointKind,
    ) -> tics_vm::Result<()> {
        Ok(())
    }

    fn on_isr_enter(&mut self, m: &mut Machine) -> tics_vm::Result<()> {
        m.regs.sp = tics_mcu::Addr(m.regs.sp.raw() - 4);
        Ok(())
    }

    fn on_isr_exit(&mut self, m: &mut Machine) -> tics_vm::Result<()> {
        m.regs.sp = m.regs.sp.offset(4);
        Ok(())
    }
}

/// Builds a fresh runtime for one engine's run.
type RuntimeOf = dyn Fn() -> Box<dyn IntermittentRuntime>;

/// An ISR that calls a helper: the helper's return stays in the zone,
/// the return from interrupt goes to the reference step. The ISR fires
/// first right after a return to a call site.
#[test]
fn isr_handlers_that_call_helpers_agree() {
    let prog = calls_program(SystemUnderTest::PlainC);
    let returns = call_and_return_starts(&prog, 4).split_off(4);
    let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("machine");
    let mut rec = Recorder(Vec::new());
    grid_executor()
        .with_engine(DispatchEngine::Reference)
        .run(&mut m, &mut rec, &mut ContinuousPower::new())
        .expect("the recording run finishes");
    // The instruction after each recorded return starts at a return
    // site: the pc right after a call.
    let after_returns: Vec<u64> = rec
        .0
        .windows(2)
        .filter(|w| returns.contains(&w[0].0))
        .map(|w| w[1].0)
        .collect();
    assert_eq!(after_returns.len(), returns.len());
    for (i, at) in after_returns.into_iter().enumerate() {
        let cfg = MachineConfig {
            isr: Some(("tick".to_string(), at)),
            ..MachineConfig::default()
        };
        let rts: [(&str, &RuntimeOf); 2] = [
            ("bare", &|| Box::new(BareRuntime::new())),
            ("low-sp", &|| Box::new(LowIsrSp)),
        ];
        for (name, rt_of) in rts {
            let snap = assert_engines_agree(
                &format!("isr-calls/{i}/{name}"),
                &prog,
                &cfg,
                rt_of,
                &grid_executor(),
                &Supply::Continuous,
                Device::default(),
            );
            let exits = snap
                .trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::IsrExit))
                .count();
            assert!(exits > 0, "isr-calls/{i}/{name}: the ISR never returned");
        }
    }
}

/// The three-argument `add3` copies 12 bytes, more than the atomic
/// write buffer: under the corruption model such a copy draws a
/// brown-out fate inside the window before a cut, so zones hand it to
/// the reference. Cuts land 300 and 1,500 cycles after `add3` calls,
/// inside the 2,000-cycle window, under plain C, MementOS and Ratchet
/// (whose frames are in FRAM). The ISR's stops end zones inside that
/// window but beyond a cut's reach, so zones that skip the torn-store
/// test meet those calls.
#[test]
fn wide_calls_under_corruption_agree() {
    for system in [
        SystemUnderTest::PlainC,
        SystemUnderTest::Mementos,
        SystemUnderTest::Ratchet,
    ] {
        let prog = calls_program(system);
        let starts = call_and_return_starts(&calls_program(SystemUnderTest::PlainC), 6);
        let cfg = MachineConfig {
            isr: Some(("tick".to_string(), 331)),
            ..MachineConfig::default()
        };
        for (i, &start) in starts[..6].iter().enumerate() {
            for lag in [300, 1_500] {
                let corruption = Corruption::with_rate(2_000, 0.5, 0xCA11_0000 ^ i as u64);
                let plan = FaultPlan::new(vec![start + lag, 3 * (start + lag)], 150);
                assert_engines_agree(
                    &format!("wide/{system:?}/{i}/lag-{lag}"),
                    &prog,
                    &cfg,
                    &|| make_runtime(system, &prog),
                    &grid_executor(),
                    &Supply::Adversarial(plan),
                    Device {
                        corruption: Some(&corruption),
                        ..Device::default()
                    },
                );
            }
        }
    }
}

/// Maps a header word's old value to its corrupted one.
type Rewrite = fn(u32) -> u32;

/// Plain C that rewrites words of the running frame's header at its
/// first stop: word 0 is the return pc, 1 the caller's `fp`, 2 the
/// caller's `sp`; `value` maps each old word to its new one.
struct CorruptHeader {
    at: u64,
    words: &'static [u32],
    value: Rewrite,
    done: bool,
}

impl IntermittentRuntime for CorruptHeader {
    fn name(&self) -> &'static str {
        "corrupt-header"
    }

    fn capabilities(&self) -> tics_vm::RuntimeCapabilities {
        BareRuntime.capabilities()
    }

    fn instrumentation(&self) -> tics_minic::program::Instrumentation {
        BareRuntime.instrumentation()
    }

    fn on_boot(&mut self, m: &mut Machine) -> tics_vm::Result<tics_vm::ResumeAction> {
        BareRuntime.on_boot(m)
    }

    fn checkpoint(
        &mut self,
        _m: &mut Machine,
        _kind: tics_vm::CheckpointKind,
    ) -> tics_vm::Result<()> {
        Ok(())
    }

    fn next_stop(&mut self, _m: &mut Machine) -> u64 {
        if self.done {
            u64::MAX
        } else {
            self.at
        }
    }

    fn on_stop(&mut self, m: &mut Machine) -> tics_vm::Result<()> {
        if !self.done && m.cycles() >= self.at {
            self.done = true;
            for &word in self.words {
                let a = m.regs.fp.offset(4 * word);
                let old = m.mem.peek_word(a)?;
                m.mem.poke_i32(a, (self.value)(old) as i32)?;
            }
        }
        Ok(())
    }
}

/// Returns whose saved return pc, caller `fp` or caller `sp` was
/// corrupted while the callee ran: the zone runs only a return whose
/// header names a caller the decoder proved, and hands every other one
/// to the reference, which goes wherever the header points.
#[test]
fn returns_through_corrupted_headers_agree() {
    let prog = calls_program(SystemUnderTest::PlainC);
    // A stop inside a callee: one cycle after each of the first calls.
    let calls: Vec<u64> = call_and_return_starts(&prog, 6)[..6].to_vec();
    // Moving the caller's `fp` and `sp` together keeps `sp` where the
    // return site's depth puts it: a frame 4 bytes up is still in SRAM,
    // 64 KiB up it is in FRAM, 2 KiB up it is unmapped.
    let corruptions: [(&str, &[u32], Rewrite); 10] = [
        ("ret-pc-next", &[0], |pc| pc + 1),
        ("ret-pc-entry", &[0], |_| 0),
        ("ret-pc-wild", &[0], |_| 0x7FFF_0000),
        ("caller-fp-up", &[1], |fp| fp + 4),
        ("caller-fp-out", &[1], |_| 0x0000_0100),
        ("caller-sp-up", &[2], |sp| sp + 4),
        ("caller-sp-down", &[2], |sp| sp - 4),
        ("caller-frame-up", &[1, 2], |a| a + 4),
        ("caller-frame-fram", &[1, 2], |a| a + 0x1_0000),
        ("caller-frame-unmapped", &[1, 2], |a| a + 0x800),
    ];
    for &call in &calls {
        for (name, words, value) in corruptions {
            assert_engines_agree(
                &format!("corrupt/{name}/at-{}", call + 1),
                &prog,
                &MachineConfig::default(),
                &|| {
                    Box::new(CorruptHeader {
                        at: call + 1,
                        words,
                        value,
                        done: false,
                    })
                },
                &grid_executor(),
                &Supply::Continuous,
                Device::default(),
            );
        }
    }
}
