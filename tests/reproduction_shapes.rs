//! The paper's headline result *shapes*, enforced as tests — scaled-down
//! versions of the Table 1–3 experiments that must keep holding as the
//! code evolves (the full-scale versions live in `tics-bench`).

use tics_bench::count_violations;
use tics_repro::apps::workload::{ar_trace, ghm_trace};
use tics_repro::apps::{ar, bc, build_app, ghm, App, SystemUnderTest};
use tics_repro::baselines::NaiveCheckpoint;
use tics_repro::clock::VolatileClock;
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{DutyCycleTrace, PowerSupply, RecordedTrace};
use tics_repro::minic::{compile, opt::OptLevel, passes};
use tics_repro::vm::{Executor, IntermittentRuntime, Machine, MachineConfig};

/// Table 1 shape: on the same 30 %-duty reset pattern, plain-C GHM is
/// inconsistent and TICS GHM is consistent.
#[test]
fn table1_shape_plain_inconsistent_tics_consistent() {
    let window_us = 1_200_000;
    let run = |system: SystemUnderTest| {
        let prog = build_app(
            App::Ghm,
            system,
            OptLevel::O2,
            tics_repro::apps::build::Scale(10_000),
        )
        .expect("builds");
        let mut m = Machine::new(
            prog.clone(),
            MachineConfig {
                sensor_trace: ghm_trace(32, ghm::READINGS, 11).into(),
                ..MachineConfig::default()
            },
        )
        .expect("loads");
        let mut rt = tics_repro::apps::build::make_runtime(system, &prog);
        let mut gen = DutyCycleTrace::new(0.3, 40_000, 0.25, 5);
        let mut total = 0;
        let mut periods = Vec::new();
        while total < window_us {
            let p = gen.next_period().expect("infinite");
            periods.push((p.on_us, p.off_us));
            total += p.on_us + p.off_us;
        }
        let _ = Executor::new()
            .with_time_budget(window_us)
            .run(&mut m, rt.as_mut(), &mut RecordedTrace::new(periods))
            .expect("runs");
        ghm::read_counters(&m)
    };
    let plain = run(SystemUnderTest::PlainC);
    let tics = run(SystemUnderTest::Tics);
    assert!(plain[0] > plain[3], "plain C must over-sense: {plain:?}");
    assert!(!ghm::is_consistent(plain), "{plain:?}");
    assert!(ghm::is_consistent(tics), "{tics:?}");
}

/// Table 2 shape: the manual-time AR violates time consistency under a
/// volatile clock; the annotated AR under TICS does not, on comparable
/// power.
#[test]
fn table2_shape_violations_eliminated() {
    let windows = 60;
    let (trace, _) = ar_trace(windows * 4, ar::WINDOW, 5, 9);
    let supply = || DutyCycleTrace::new(0.06, 280_000, 0.35, 21);

    // w/o TICS.
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Mementos,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let mut m = Machine::with_clock(
        prog,
        MachineConfig {
            sensor_trace: trace.clone().into(),
            ..MachineConfig::default()
        },
        Box::new(VolatileClock::new()),
    )
    .expect("loads");
    let mut rt = NaiveCheckpoint::new(500);
    let mut s = supply();
    let _ = Executor::new()
        .with_time_budget(1_500_000_000)
        .run(&mut m, &mut rt, &mut s)
        .expect("runs");
    let without = count_violations(m.trace().records(), false);
    assert!(without.total() > 0, "{without:?}");

    // w/ TICS.
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let cfg = TicsConfig::s2_star().fitted_to(&prog);
    let mut m = Machine::new(
        prog,
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
    )
    .expect("loads");
    let mut rt = TicsRuntime::new(cfg);
    let mut s = supply();
    let _ = Executor::new()
        .with_time_budget(1_500_000_000)
        .run(&mut m, &mut rt, &mut s)
        .expect("runs");
    let with = count_violations(m.trace().records(), true);
    assert_eq!(with.total(), 0, "{with:?}");
}

/// Table 3 shape: Chinchilla's image dwarfs TICS's on both sections;
/// TICS `.data` is the smallest of the three systems.
#[test]
fn table3_shape_memory_ordering() {
    for app in [App::Ar, App::Cuckoo] {
        let tics = build_app(
            app,
            SystemUnderTest::Tics,
            OptLevel::O2,
            tics_repro::apps::build::Scale(16),
        )
        .expect("tics builds");
        let chin = build_app(
            app,
            SystemUnderTest::Chinchilla,
            OptLevel::O0,
            tics_repro::apps::build::Scale(16),
        )
        .expect("chinchilla builds at O0");
        let ink = build_app(
            app,
            SystemUnderTest::Ink,
            OptLevel::O2,
            tics_repro::apps::build::Scale(16),
        )
        .expect("ink builds");
        assert!(chin.text_bytes() > tics.text_bytes(), "{}", app.name());
        assert!(chin.data_bytes() > 2 * tics.data_bytes(), "{}", app.name());
        assert!(ink.data_bytes() > tics.data_bytes(), "{}", app.name());
        assert!(tics.text_bytes() > ink.text_bytes(), "{}", app.name());
    }
}

/// Figure 9 shape: naive checkpointing collapses on loop-heavy BC while
/// TICS stays within a small factor of plain C.
#[test]
fn fig9_shape_naive_collapses_on_bc() {
    let run = |prog: tics_repro::minic::Program, rt: &mut dyn IntermittentRuntime| {
        let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
        let out = Executor::new()
            .with_time_budget(60_000_000_000)
            .run(&mut m, rt, &mut tics_repro::energy::ContinuousPower::new())
            .expect("runs");
        assert!(out.exit_code().is_some());
        m.cycles()
    };
    let plain = {
        let prog = compile(&bc::plain_src(12), OptLevel::O2).unwrap();
        run(prog, &mut tics_repro::vm::BareRuntime::new())
    };
    let tics = {
        let mut prog = compile(&bc::plain_src(12), OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let cfg = TicsConfig::s2_star().fitted_to(&prog);
        run(prog, &mut TicsRuntime::new(cfg))
    };
    let naive = {
        let mut prog = compile(&bc::plain_src(12), OptLevel::O2).unwrap();
        passes::instrument_mementos(&mut prog).unwrap();
        run(prog, &mut NaiveCheckpoint::default())
    };
    assert!(
        naive > 2 * tics,
        "naive ({naive}) must collapse relative to TICS ({tics})"
    );
    assert!(
        tics < 6 * plain,
        "TICS ({tics}) must stay within a small factor of plain ({plain})"
    );
}
