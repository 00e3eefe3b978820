//! Time-blindness of the baselines, measured: every checkpointing
//! baseline keeps memory consistent, but only TICS keeps *time*
//! consistent — the Figure 3(b–d) violations show up under each
//! time-blind runtime and vanish under TICS on the same power trace.

use tics_bench::count_violations;
use tics_repro::apps::workload::ar_trace;
use tics_repro::apps::{ar, build_app, App, SystemUnderTest};
use tics_repro::clock::{CapacitorRtc, Timekeeper, VolatileClock};
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{DutyCycleTrace, PowerSupply};
use tics_repro::minic::opt::OptLevel;
use tics_repro::vm::{Executor, IntermittentRuntime, Machine, MachineConfig};

fn supply() -> impl PowerSupply {
    // ~18 ms on-slices separated by ~280 ms outages — well past the
    // 200 ms data TTL, so windows straddling a failure genuinely expire.
    DutyCycleTrace::new(0.06, 300_000, 0.4, 1337)
}

fn run_ar(
    system: SystemUnderTest,
    clock: Box<dyn Timekeeper>,
    runtime: &mut dyn IntermittentRuntime,
) -> (tics_repro::vm::ExecStats, Vec<tics_trace::TraceRecord>) {
    let windows = 120;
    let (trace, _) = ar_trace(windows * 4, ar::WINDOW, 5, 77);
    let prog = build_app(
        App::Ar,
        system,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let mut m = Machine::with_clock(
        prog,
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
        clock,
    )
    .expect("loads");
    let mut s = supply();
    let _ = Executor::new()
        .with_time_budget(3_000_000_000)
        .run(&mut m, runtime, &mut s)
        .expect("runs");
    (m.stats().clone(), m.trace().records().to_vec())
}

#[test]
fn naive_checkpointing_violates_time_consistency() {
    let mut rt = tics_repro::baselines::NaiveCheckpoint::new(500);
    let (_, trace) = run_ar(
        SystemUnderTest::Mementos,
        Box::new(VolatileClock::new()),
        &mut rt,
    );
    let v = count_violations(&trace, false);
    assert!(
        v.total() > 0,
        "the volatile clock + restores must produce violations, got {v:?}"
    );
    assert!(v.expiration > 0, "{v:?}");
}

#[test]
fn ratchet_violates_time_consistency() {
    let prog_system = SystemUnderTest::Ratchet;
    let mut rt = tics_repro::baselines::RatchetRuntime::default();
    let (_, trace) = run_ar(prog_system, Box::new(VolatileClock::new()), &mut rt);
    let v = count_violations(&trace, false);
    assert!(
        v.total() > 0,
        "ratchet is time-blind; violations expected, got {v:?}"
    );
}

#[test]
fn tics_on_the_same_trace_is_violation_free() {
    let windows = 120;
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let mut rt = TicsRuntime::new(TicsConfig::s2_star().fitted_to(&prog));
    let (stats, trace) = run_ar(
        SystemUnderTest::Tics,
        Box::new(CapacitorRtc::new(120_000_000)),
        &mut rt,
    );
    let v = count_violations(&trace, true);
    assert_eq!(v.total(), 0, "{v:?}");
    assert!(
        stats.expired_data_discards > 0,
        "stale windows must be *discarded*, not consumed: {v:?}"
    );
}
