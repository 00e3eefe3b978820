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

/// Power cuts at every cycle of a window around burst-zone stops. A
/// zone whose stores cannot reach the armed cut skips the torn-store
/// test; one whose stores can, runs it. The bound between the two lies
/// `instr_base + 5 × (dearest word cost)` cycles past the zone's stop,
/// so windows that wide on both sides of the ISR's stops and of TICS's
/// checkpoint stops put cuts on both sides of it: both kinds of zone
/// run, and every store must commit or tear exactly where the
/// reference's does.
#[test]
fn cuts_around_zone_stops_tear_as_the_reference_does() {
    let costs = tics_mcu::CostModel::default();
    let reach = costs.instr_base
        + 5 * costs
            .sram_access_per_word
            .max(costs.fram_read_per_word)
            .max(costs.fram_write_per_word);
    let (bare, bare_cfg) = short_isr_program(SystemUnderTest::PlainC, 97);
    let found = assert_cuts_around_stops_agree(
        "bare",
        &bare,
        &bare_cfg,
        &|| Box::new(BareRuntime::new()),
        reach,
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
        reach,
    );
    assert_eq!(found, (0, 1), "tics: zone stops found");
}
