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

use std::sync::Arc;

use tics_bench::sweep::standard_sensor_trace;
use tics_bench::{ClockKind, SupplySpec};
use tics_repro::apps::build::{build_app, make_runtime, Scale};
use tics_repro::apps::{App, SystemUnderTest};
use tics_repro::energy::{AdversarialSupply, FaultPlan, PowerSupply};
use tics_repro::minic::opt::OptLevel;
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
