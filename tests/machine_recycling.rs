//! Differential proof that machine recycling is invisible: a `Machine`
//! that already lived a whole device life, then was `reset(seed)` and
//! handed a recycled runtime, must be **byte-identical** to a machine
//! freshly instantiated from the same shared `MachineImage` with that
//! seed — same trace stream, same cycle count, same stats, same final
//! SRAM and FRAM images. This is the property the fleet engine
//! (`exp_fleet`) rests on: it simulates thousands of devices per
//! worker by resetting one machine, so any state bleeding across
//! `reset` would silently corrupt fleet statistics.
//!
//! The grid deliberately covers both dispatch engines, every
//! AR-feasible system (stateful runtimes must recycle too), a
//! stochastic duty-cycle supply *and* an adversarial fault plan whose
//! cuts land mid-checkpoint.
//!
//! The crash oracles (fault, chaos, torn-wire) recycle one machine and
//! one runtime per cell through `ReplayRig`. The last tests replay
//! every quick-grid cell of `exp_fault`, `exp_chaos` and `exp_periph`
//! on one rig and compare each trial with a fresh one-shot replay of
//! the same plan: outcome, trace, counters, cycles and wire logs. A
//! trial that follows a corrupted one checks that the corruption RNG,
//! the peripheral wire state and the supply are re-armed, not carried
//! over.

use std::sync::Arc;

use tics_bench::fault::{
    build_fault_program, chaos_plan, fault_budget_us, golden_run, run_plan, FaultProgram,
    ReplayRig, Strategy, Trial, GUARD_BOOTS as ORACLE_GUARD_BOOTS,
};
use tics_bench::periph::{
    build_periph_program, periph_budget_us, periph_golden, run_periph_plan, PeriphTrial,
    PeriphWorkload,
};
use tics_bench::sweep::standard_sensor_trace;
use tics_bench::{ClockKind, SupplySpec};
use tics_repro::apps::build::{build_app, make_runtime, Scale};
use tics_repro::apps::{App, SystemUnderTest};
use tics_repro::energy::{AdversarialSupply, FaultPlan, PowerSupply};
use tics_repro::minic::opt::OptLevel;
use tics_repro::minic::Program;
use tics_repro::vm::{DispatchEngine, Executor, Machine, MachineConfig, MachineImage};

const SCALE: u32 = 6;
const BUDGET_US: u64 = 5_000_000;
const GUARD_BOOTS: u64 = 96;
const SEED_FIRST_LIFE: u64 = 0x000A_11CE_5EED;
const SEED_UNDER_TEST: u64 = 0x0B0B_5EED;

/// Everything observable about one device life.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: String,
    cycles: u64,
    stats: tics_repro::vm::ExecStats,
    trace: Vec<tics_trace::TraceRecord>,
    sram: Vec<u8>,
    fram: Vec<u8>,
}

fn observe(m: &Machine, outcome: String) -> Observation {
    let layout = *m.image().layout();
    Observation {
        outcome,
        cycles: m.cycles(),
        stats: m.stats().clone(),
        trace: m.trace().records().to_vec(),
        sram: m
            .mem
            .peek_slice(layout.sram.start, layout.sram.len())
            .expect("sram mapped")
            .to_vec(),
        fram: m
            .mem
            .peek_slice(layout.fram.start, layout.fram.len())
            .expect("fram mapped")
            .to_vec(),
    }
}

fn run_once(
    m: &mut Machine,
    rt: &mut dyn tics_repro::vm::IntermittentRuntime,
    supply: &mut dyn PowerSupply,
    engine: DispatchEngine,
) -> String {
    match Executor::new()
        .with_engine(engine)
        .with_time_budget(BUDGET_US)
        .with_progress_guard(GUARD_BOOTS)
        .run(m, rt, supply)
    {
        Ok(o) => format!("{o:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Builds the supplies for the two device lives. Each call returns
/// fresh, deterministic instances so the recycled and fresh runs see
/// identical energy environments.
fn supplies(adversarial: bool) -> (Box<dyn PowerSupply>, Box<dyn PowerSupply>) {
    if adversarial {
        // Cut points chosen to land inside checkpoint/restore windows of
        // the AR workload; the second life gets a *different* plan so
        // the first life genuinely perturbs all runtime state.
        let first = FaultPlan::new(vec![13_000, 29_000, 31_000, 47_000], 40_000);
        let second = FaultPlan::new(vec![7_000, 11_000, 23_000, 24_000, 59_000], 35_000);
        (
            Box::new(AdversarialSupply::new(first)),
            Box::new(AdversarialSupply::new(second)),
        )
    } else {
        let spec = SupplySpec::DutyCycle {
            duty: 0.35,
            period_us: 20_000,
            jitter: 0.55,
        };
        (spec.build(SEED_FIRST_LIFE), spec.build(SEED_UNDER_TEST))
    }
}

/// The differential: live one life, reset, live the life under test —
/// then compare against a fresh machine living only the life under
/// test.
fn assert_recycling_invisible(system: SystemUnderTest, engine: DispatchEngine, adversarial: bool) {
    let Ok(prog) = build_app(App::Ar, system, OptLevel::O2, Scale(SCALE)) else {
        return; // infeasible combination — nothing to prove
    };
    let config = MachineConfig {
        sensor_trace: standard_sensor_trace(App::Ar, SCALE),
        ..MachineConfig::default()
    };
    let image = MachineImage::build(prog.clone(), &config).expect("image loads");
    let clock = || ClockKind::CapacitorRtc(60_000_000).build();
    let (mut supply_first, mut supply_test) = supplies(adversarial);

    // Recycled path: first life with a different seed and supply, then
    // reset into the life under test.
    let mut recycled =
        Machine::from_image(Arc::clone(&image), SEED_FIRST_LIFE, clock()).expect("instantiates");
    let mut rt = make_runtime(system, &prog);
    let _ = run_once(&mut recycled, rt.as_mut(), supply_first.as_mut(), engine);
    recycled.reset(SEED_UNDER_TEST).expect("resets");
    rt.recycle();
    let (_, mut supply_test_again) = supplies(adversarial);
    let outcome = run_once(&mut recycled, rt.as_mut(), supply_test.as_mut(), engine);
    let recycled_obs = observe(&recycled, outcome);

    // Fresh path: only the life under test.
    let mut fresh =
        Machine::from_image(Arc::clone(&image), SEED_UNDER_TEST, clock()).expect("instantiates");
    let mut fresh_rt = make_runtime(system, &prog);
    let outcome = run_once(
        &mut fresh,
        fresh_rt.as_mut(),
        supply_test_again.as_mut(),
        engine,
    );
    let fresh_obs = observe(&fresh, outcome);

    assert_eq!(
        recycled_obs.outcome, fresh_obs.outcome,
        "{system:?}/{engine:?} adversarial={adversarial}: outcomes diverge"
    );
    assert_eq!(
        recycled_obs.cycles, fresh_obs.cycles,
        "{system:?}/{engine:?} adversarial={adversarial}: cycle counts diverge"
    );
    assert_eq!(
        recycled_obs.trace, fresh_obs.trace,
        "{system:?}/{engine:?} adversarial={adversarial}: trace streams diverge"
    );
    assert_eq!(
        recycled_obs.stats, fresh_obs.stats,
        "{system:?}/{engine:?} adversarial={adversarial}: stats diverge"
    );
    assert_eq!(
        recycled_obs.sram, fresh_obs.sram,
        "{system:?}/{engine:?} adversarial={adversarial}: final SRAM diverges"
    );
    assert_eq!(
        recycled_obs.fram, fresh_obs.fram,
        "{system:?}/{engine:?} adversarial={adversarial}: final FRAM diverges"
    );
    // The life under test must actually have run (a trivially empty
    // observation would make the equalities vacuous).
    assert!(recycled_obs.cycles > 0, "life under test simulated nothing");
    assert!(
        !recycled_obs.trace.is_empty(),
        "life under test traced nothing"
    );
}

#[test]
fn recycled_machines_are_trace_identical_decoded_duty_cycle() {
    for system in SystemUnderTest::ALL {
        assert_recycling_invisible(system, DispatchEngine::Decoded, false);
    }
}

#[test]
fn recycled_machines_are_trace_identical_reference_duty_cycle() {
    for system in SystemUnderTest::ALL {
        assert_recycling_invisible(system, DispatchEngine::Reference, false);
    }
}

#[test]
fn recycled_machines_are_trace_identical_decoded_adversarial_cuts() {
    for system in SystemUnderTest::ALL {
        assert_recycling_invisible(system, DispatchEngine::Decoded, true);
    }
}

#[test]
fn recycled_machines_are_trace_identical_reference_adversarial_cuts() {
    for system in SystemUnderTest::ALL {
        assert_recycling_invisible(system, DispatchEngine::Reference, true);
    }
}

/// Recycling must also be *cheap*: resetting a machine and re-running
/// must not allocate a new image (the whole point of the fleet
/// refactor). Proven by pointer identity of the shared image.
#[test]
fn reset_preserves_the_shared_image() {
    let prog =
        build_app(App::Ar, SystemUnderTest::Tics, OptLevel::O2, Scale(SCALE)).expect("builds");
    let config = MachineConfig {
        sensor_trace: standard_sensor_trace(App::Ar, SCALE),
        ..MachineConfig::default()
    };
    let image = MachineImage::build(prog, &config).expect("loads");
    let mut m = Machine::from_image(Arc::clone(&image), 1, ClockKind::Perfect.build())
        .expect("instantiates");
    let before = Arc::as_ptr(m.image());
    m.reset(2).expect("resets");
    assert_eq!(before, Arc::as_ptr(m.image()), "reset replaced the image");
    assert_eq!(Arc::strong_count(&image), 2, "reset leaked an image clone");
}

/// Two cell seeds for the oracle cells: seeded plans (random cuts,
/// chaos cuts and their corruption streams) differ between them.
const ORACLE_SEEDS: [u64; 2] = [0x5EED_0001, 0xC3050A6F554E4A51];

/// The corpus programs of the quick fault and chaos grids.
const QUICK_PROGRAMS: [FaultProgram; 2] = [FaultProgram::NvAccumulator, FaultProgram::LcgStream];

/// The quick grids' systems: `exp_fault`'s six (`exp_chaos`'s three
/// are among them).
const QUICK_FAULT_SYSTEMS: [SystemUnderTest; 6] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Tics,
    SystemUnderTest::Mementos,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ratchet,
    SystemUnderTest::Alpaca,
];

const QUICK_CHAOS_SYSTEMS: [SystemUnderTest; 3] = [
    SystemUnderTest::Tics,
    SystemUnderTest::Mementos,
    SystemUnderTest::Ratchet,
];

const QUICK_PERIPH_SYSTEMS: [SystemUnderTest; 4] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Tics,
    SystemUnderTest::Mementos,
    SystemUnderTest::Alpaca,
];

/// Asserts two replays of one plan equal in every field a cell folds.
fn assert_same_trial(recycled: &Trial, fresh: &Trial, what: &str) {
    assert_eq!(recycled.outcome, fresh.outcome, "{what}: outcome");
    assert_eq!(
        recycled.power_failures, fresh.power_failures,
        "{what}: power_failures"
    );
    assert_eq!(
        recycled.torn_writes, fresh.torn_writes,
        "{what}: torn_writes"
    );
    assert_eq!(
        recycled.corrupted_writes, fresh.corrupted_writes,
        "{what}: corrupted_writes"
    );
    assert_eq!(recycled.recoveries, fresh.recoveries, "{what}: recoveries");
    assert_eq!(recycled.cycles, fresh.cycles, "{what}: cycles");
    assert!(
        recycled.trace == fresh.trace,
        "{what}: trace streams diverge"
    );
}

/// Replays `plans` on one rig and each plan on a fresh machine, and
/// returns how many trials followed one that corrupted a store.
fn assert_cell_recycles(
    prog: &Program,
    system: SystemUnderTest,
    plans: &[FaultPlan],
    budget: u64,
    cell: &str,
) -> u64 {
    let mut rig = ReplayRig::new(prog, system);
    let mut after_corrupted = 0;
    let mut previous_corrupted = false;
    for (i, plan) in plans.iter().enumerate() {
        let recycled = rig.run(plan, budget, ORACLE_GUARD_BOOTS);
        let fresh = run_plan(prog, system, plan, budget, ORACLE_GUARD_BOOTS);
        assert_same_trial(&recycled, &fresh, &format!("{cell} trial {i}"));
        after_corrupted += u64::from(previous_corrupted);
        previous_corrupted = fresh.corrupted_writes > 0;
    }
    after_corrupted
}

/// `exp_fault`'s quick grid (stride plans, which no seed moves) plus
/// its random strategy at both seeds: every recycled trial equals a
/// fresh one.
#[test]
fn fault_cells_recycle_invisibly() {
    for program in QUICK_PROGRAMS {
        for system in QUICK_FAULT_SYSTEMS {
            let prog = build_fault_program(program, system).expect("quick-grid cells build");
            let golden = golden_run(&prog, system).expect("golden run finishes");
            let budget = fault_budget_us(&golden);
            let mut cells = vec![(Strategy::Stride, 0, 40)];
            cells.extend(ORACLE_SEEDS.map(|seed| (Strategy::Random, seed, 12)));
            for (strategy, seed, trials) in cells {
                let plans = strategy.plans(&golden, trials, seed);
                let cell = format!(
                    "{} x {system:?} {} seed {seed:#x}",
                    program.name(),
                    strategy.name()
                );
                assert_cell_recycles(&prog, system, &plans, budget, &cell);
            }
        }
    }
}

/// `exp_chaos`'s quick grid (brown-out corruption at rate 0.4) at both
/// seeds, including trials that follow a corrupted trial.
#[test]
fn chaos_cells_recycle_invisibly() {
    let mut after_corrupted = 0;
    for seed in ORACLE_SEEDS {
        for program in QUICK_PROGRAMS {
            for system in QUICK_CHAOS_SYSTEMS {
                let prog = build_fault_program(program, system).expect("quick-grid cells build");
                let golden = golden_run(&prog, system).expect("golden run finishes");
                let plans: Vec<_> = (0..16)
                    .map(|i| chaos_plan(seed, i, golden.on_cycles, Some(0.4)))
                    .collect();
                let cell = format!("{} x {system:?} chaos seed {seed:#x}", program.name());
                after_corrupted +=
                    assert_cell_recycles(&prog, system, &plans, fault_budget_us(&golden), &cell);
            }
        }
    }
    assert!(after_corrupted > 0, "no trial followed a corrupted trial");
}

/// Asserts two torn-wire replays of one plan equal in every field,
/// the device-side wire logs included.
fn assert_same_periph_trial(recycled: &PeriphTrial, fresh: &PeriphTrial, what: &str) {
    assert_eq!(recycled.outcome, fresh.outcome, "{what}: outcome");
    assert_eq!(
        recycled.power_failures, fresh.power_failures,
        "{what}: power_failures"
    );
    assert_eq!(
        recycled.corrupted_writes, fresh.corrupted_writes,
        "{what}: corrupted_writes"
    );
    assert_eq!(recycled.cycles, fresh.cycles, "{what}: cycles");
    assert_eq!(recycled.uart_wire, fresh.uart_wire, "{what}: UART wire");
    assert_eq!(
        recycled.i2c_served, fresh.i2c_served,
        "{what}: I2C served log"
    );
    assert!(
        recycled.trace == fresh.trace,
        "{what}: trace streams diverge"
    );
}

/// `exp_periph`'s quick grid (no corruption) at both seeds, plus the
/// full grid's corruption rate 0.3, so that wire state after a
/// corrupted trial is checked too.
#[test]
fn periph_cells_recycle_invisibly() {
    let mut after_corrupted = 0;
    for seed in ORACLE_SEEDS {
        for workload in [PeriphWorkload::SensorLog, PeriphWorkload::Telemetry] {
            for system in QUICK_PERIPH_SYSTEMS {
                let Ok(prog) = build_periph_program(workload, system) else {
                    continue; // infeasible cell: nothing to replay
                };
                let golden = periph_golden(&prog, system).expect("golden run finishes");
                let budget = periph_budget_us(&golden);
                for rate in [None, Some(0.3)] {
                    let mut rig = ReplayRig::new(&prog, system);
                    let mut previous_corrupted = false;
                    for i in 0..8 {
                        let plan = chaos_plan(seed, i, golden.on_cycles, rate);
                        let recycled = rig.run_periph(&plan, budget, ORACLE_GUARD_BOOTS);
                        let fresh =
                            run_periph_plan(&prog, system, &plan, budget, ORACLE_GUARD_BOOTS);
                        let what = format!(
                            "{} x {system:?} rate {rate:?} seed {seed:#x} trial {i}",
                            workload.name()
                        );
                        assert_same_periph_trial(&recycled, &fresh, &what);
                        after_corrupted += u64::from(previous_corrupted);
                        previous_corrupted = fresh.corrupted_writes > 0;
                    }
                }
            }
        }
    }
    assert!(
        after_corrupted > 0,
        "no periph trial followed a corrupted trial"
    );
}
