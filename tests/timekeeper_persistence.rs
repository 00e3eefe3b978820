//! Wall-clock sanity of the structured trace across reboots: the trace
//! timestamps are the *true* time axis of the simulation, so they must
//! be non-decreasing in emission order, jump by at least the outage
//! length across every power failure, and agree exactly with the
//! timed-event folds in `ExecStats` (which are derived from the same
//! stream — this pins the equivalence).

use tics_repro::apps::workload::ar_trace;
use tics_repro::apps::{ar, build_app, App, SystemUnderTest};
use tics_repro::clock::CapacitorRtc;
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{AdversarialSupply, FaultPlan, PowerSupply};
use tics_repro::minic::opt::OptLevel;
use tics_repro::vm::{Executor, Machine, MachineConfig};
use tics_trace::{TraceEvent, TraceRecord};

fn run_ar_tics(supply: &mut dyn PowerSupply) -> Machine {
    let windows = 40;
    let (trace, _) = ar_trace(windows * 4, ar::WINDOW, 5, 7);
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let cfg = TicsConfig::s2_star().fitted_to(&prog);
    let mut m = Machine::with_clock(
        prog,
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
        Box::new(CapacitorRtc::new(120_000_000)),
    )
    .expect("loads");
    let mut rt = TicsRuntime::new(cfg);
    let _ = Executor::new()
        .with_time_budget(1_000_000_000)
        .run(&mut m, &mut rt, supply)
        .expect("runs");
    m
}

/// Every trace property a run must satisfy, checked in one pass.
fn check_trace_clock(records: &[TraceRecord]) {
    let mut failures = 0u64;
    for pair in records.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            b.at_us >= a.at_us,
            "wall clock went backwards: {:?}@{} then {:?}@{}",
            a.event,
            a.at_us,
            b.event,
            b.at_us
        );
        if let TraceEvent::PowerFailure { off_us } = a.event {
            failures += 1;
            // The next event is emitted on (or after) the reboot, so at
            // least the outage separates it from the failure.
            assert!(
                b.at_us >= a.at_us + off_us,
                "outage not reflected in wall clock: failure at {} (off {}), \
                 next event {:?} at {}",
                a.at_us,
                off_us,
                b.event,
                b.at_us
            );
        }
    }
    assert!(failures > 0, "the plan must actually cut power");
}

/// The stats folds and the trace must tell the same timed story.
fn check_stats_agree(m: &Machine) {
    let records = m.trace().records();
    let marks: Vec<(i32, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Mark { id } => Some((id, r.at_us)),
            _ => None,
        })
        .collect();
    let sends: Vec<(i32, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Send { value } => Some((value, r.at_us)),
            _ => None,
        })
        .collect();
    assert_eq!(marks, m.stats().marks_timed, "marks diverged from trace");
    assert_eq!(sends, m.stats().sends_timed, "sends diverged from trace");
    assert!(!marks.is_empty(), "AR must emit marks");
}

#[test]
fn wall_clock_is_monotonic_across_adversarial_cuts() {
    // The last cut stays below the workload's continuous-power finish
    // (~341k on-cycles since incremental checkpointing) so all six land.
    let plan = FaultPlan::new(
        vec![40_000, 90_000, 151_000, 152_000, 230_000, 300_000],
        250_000,
    );
    let mut supply = AdversarialSupply::new(plan);
    let m = run_ar_tics(&mut supply);
    assert!(
        m.stats().power_failures >= 6,
        "{:?}",
        m.stats().power_failures
    );
    check_trace_clock(m.trace().records());
    check_stats_agree(&m);
}

#[test]
fn wall_clock_holds_over_a_cut_point_sweep() {
    for plan in FaultPlan::sweep(200_000, 8, 180_000) {
        let mut supply = AdversarialSupply::new(plan);
        let m = run_ar_tics(&mut supply);
        check_trace_clock(m.trace().records());
        check_stats_agree(&m);
    }
}

#[test]
fn detailed_mode_preserves_the_timeline_story() {
    // Detail events (span enters/exits, undo appends, ...) interleave
    // into the stream without perturbing the timed folds: the same plan
    // with detail on yields byte-identical marks/sends.
    let plan = || FaultPlan::new(vec![60_000, 140_000, 260_000], 220_000);

    let mut lean = AdversarialSupply::new(plan());
    let lean_m = run_ar_tics(&mut lean);

    let windows = 40;
    let (trace, _) = ar_trace(windows * 4, ar::WINDOW, 5, 7);
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(windows),
    )
    .expect("builds");
    let cfg = TicsConfig::s2_star().fitted_to(&prog);
    let mut m = Machine::with_clock(
        prog,
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
        Box::new(CapacitorRtc::new(120_000_000)),
    )
    .expect("loads");
    m.trace_mut().set_detailed(true);
    let mut rt = TicsRuntime::new(cfg);
    let mut supply = AdversarialSupply::new(plan());
    let _ = Executor::new()
        .with_time_budget(1_000_000_000)
        .run(&mut m, &mut rt, &mut supply)
        .expect("runs");

    assert!(m.trace().records().len() > lean_m.trace().records().len());
    check_trace_clock(m.trace().records());
    check_stats_agree(&m);
    assert_eq!(m.stats().marks_timed, lean_m.stats().marks_timed);
    assert_eq!(m.stats().sends_timed, lean_m.stats().sends_timed);
}
