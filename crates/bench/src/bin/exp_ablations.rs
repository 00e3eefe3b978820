//! Ablations of TICS design choices (beyond the paper's figures):
//!
//! 1. **segment size** — the §3.1.1 trade-off curve: smaller working
//!    stacks mean more stack-change checkpoints; bigger ones make each
//!    checkpoint dearer,
//! 2. **undo-log capacity** — §3.1.2: a small log forces checkpoints to
//!    drain it; a large one spends FRAM,
//! 3. **checkpoint policy** — none / timer / voltage-interrupt / both,
//!    under intermittent power (time to complete fixed work),
//! 4. **timekeeper accuracy** — Table 2's TICS column with a
//!    remanence-based timer of increasing error instead of an RTC: how
//!    much estimation error the time annotations tolerate.
//!
//! All 17 configurations run as one parallel sweep; each journal row in
//! `results/ablations.jsonl` carries `ablation` and `x` params naming
//! its curve and point.

use tics_apps::workload::ar_trace;
use tics_apps::{ar, build_app, App, SystemUnderTest};
use tics_bench::count_violations;
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::CellStatus;
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_clock::RemanenceTimer;
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::{Capacitor, CapacitorSupply, ContinuousPower, PeriodicTrace, RfHarvester};
use tics_minic::opt::OptLevel;
use tics_vm::{Executor, Machine, MachineConfig, RunOutcome};

fn tics_prog(app: App, scale: u32) -> Result<tics_minic::Program, String> {
    build_app(
        app,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_apps::build::Scale(scale),
    )
    .map_err(|e| e.to_string())
}

fn run_segment_size(cell: &Cell) -> Result<CellOutput, String> {
    let prog = tics_prog(App::Bc, cell.scale)?;
    let seg = TicsConfig::s1_seg_size(&prog) * u32::try_from(cell.param_i64("mult")).expect("mult");
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let mut rt = TicsRuntime::new(
        TicsConfig::s2()
            .with_seg_size(seg)
            .with_segments((4096 / seg).max(4)),
    );
    let out = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .map_err(|e| format!("{e:?}"))?;
    if out.exit_code().is_none() {
        return Err(format!("did not finish: {out:?}"));
    }
    Ok(CellOutput {
        outcome: "finished".to_string(),
        exit_code: out.exit_code(),
        cycles: m.cycles(),
        checkpoints: m.stats().checkpoints,
        spans: m.mem.span_cycles_all(),
        ..CellOutput::default()
    }
    .with("x", seg))
}

fn run_undo_capacity(cell: &Cell) -> Result<CellOutput, String> {
    let prog = tics_prog(App::Cuckoo, cell.scale)?;
    let capacity = u32::try_from(cell.param_i64("capacity")).expect("capacity");
    let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("loads");
    let mut rt = TicsRuntime::new(
        TicsConfig {
            undo_capacity: capacity,
            ..TicsConfig::s2()
        }
        .fitted_to(&prog),
    );
    let out = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .map_err(|e| format!("{e:?}"))?;
    if out.exit_code().is_none() {
        return Err(format!("did not finish: {out:?}"));
    }
    Ok(CellOutput {
        outcome: "finished".to_string(),
        exit_code: out.exit_code(),
        cycles: m.cycles(),
        checkpoints: m.stats().checkpoints,
        undo_appends: m.stats().undo_log_appends,
        spans: m.mem.span_cycles_all(),
        ..CellOutput::default()
    }
    .with("x", capacity))
}

fn run_checkpoint_policy(cell: &Cell) -> Result<CellOutput, String> {
    let prog = tics_prog(App::Bc, cell.scale)?;
    let timer = cell.param_value("timer_us").and_then(Json::as_u64);
    let voltage = cell.param_value("voltage_mv").and_then(Json::as_u64);
    let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(timer).fitted_to(&prog));
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let mut exec = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .with_starvation_detection(4_000);
    if let Some(v) = voltage {
        exec = exec.with_voltage_warning(v);
    }
    let out = exec
        .run(&mut m, &mut rt, &mut PeriodicTrace::new(8_000, 1_000))
        .map_err(|e| format!("{e:?}"))?;
    let outcome = match out {
        RunOutcome::Finished(_) => "finished".to_string(),
        RunOutcome::Starved { .. } => "STARVED".to_string(),
        ref other => format!("{other:?}"),
    };
    Ok(CellOutput {
        outcome,
        exit_code: out.exit_code(),
        cycles: m.cycles(),
        checkpoints: m.stats().checkpoints,
        restores: m.stats().restores,
        power_failures: m.stats().power_failures,
        spans: m.mem.span_cycles_all(),
        ..CellOutput::default()
    })
}

fn run_timekeeper_error(cell: &Cell) -> Result<CellOutput, String> {
    let windows = cell.scale;
    let error_pct = u32::try_from(cell.param_i64("error_pct")).expect("error");
    let (trace, _) = ar_trace(windows * 4, ar::WINDOW, 5, 1234);
    let prog = tics_prog(App::Ar, windows)?;
    let mut m = Machine::with_clock(
        prog.clone(),
        MachineConfig {
            sensor_trace: trace.into(),
            ..MachineConfig::default()
        },
        Box::new(RemanenceTimer::new(
            10_000_000_000,
            f64::from(error_pct) / 100.0,
            42,
        )),
    )
    .expect("loads");
    let mut rt = TicsRuntime::new(TicsConfig::s2_star().fitted_to(&prog));
    let mut supply = CapacitorSupply::new(
        RfHarvester::new(3.0, 2.0, 0.85, 42),
        Capacitor::new(10e-6, 3.3, 2.4, 1.8),
        3e-3,
    );
    let _ = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .run(&mut m, &mut rt, &mut supply)
        .map_err(|e| format!("{e:?}"))?;
    let v = count_violations(m.trace().records(), true);
    Ok(CellOutput {
        outcome: "finished-or-window".to_string(),
        cycles: m.cycles(),
        checkpoints: m.stats().checkpoints,
        restores: m.stats().restores,
        power_failures: m.stats().power_failures,
        spans: m.mem.span_cycles_all(),
        ..CellOutput::default()
    }
    .with("violations", v.total())
    .with("discards", m.stats().expired_data_discards))
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("ablations", &SWEEP);
    println!("TICS design-choice ablations\n");

    let mut sweep = exp.sweep();
    for mult in [1i64, 2, 4, 8] {
        sweep = sweep.cell(
            Cell::new(App::Bc, SystemUnderTest::Tics)
                .scale(20)
                .budget(20_000_000_000)
                .param("ablation", "segment_size")
                .param("mult", mult),
        );
    }
    for capacity in [16i64, 32, 64, 128, 256] {
        sweep = sweep.cell(
            Cell::new(App::Cuckoo, SystemUnderTest::Tics)
                .scale(40)
                .budget(20_000_000_000)
                .param("ablation", "undo_capacity")
                .param("capacity", capacity),
        );
    }
    for (label, timer, voltage) in [
        ("none", None, None),
        ("timer 2.5ms", Some(2_500i64), None),
        ("voltage", None, Some(900i64)),
        ("timer+voltage", Some(2_500), Some(900)),
    ] {
        let mut cell = Cell::new(App::Bc, SystemUnderTest::Tics)
            .scale(12)
            .budget(3_000_000_000)
            .param("ablation", "checkpoint_policy")
            .param("x", label);
        if let Some(t) = timer {
            cell = cell.param("timer_us", t);
        }
        if let Some(v) = voltage {
            cell = cell.param("voltage_mv", v);
        }
        sweep = sweep.cell(cell);
    }
    for error_pct in [0i64, 5, 20, 50] {
        sweep = sweep.cell(
            Cell::new(App::Ar, SystemUnderTest::Tics)
                .scale(120)
                .budget(4_000_000_000)
                .param("ablation", "timekeeper_error")
                .param("x", format!("{error_pct}%"))
                .param("error_pct", error_pct),
        );
    }
    let outcome = exp.run(sweep, |cell| match cell.param_str("ablation") {
        "segment_size" => run_segment_size(cell),
        "undo_capacity" => run_undo_capacity(cell),
        "checkpoint_policy" => run_checkpoint_policy(cell),
        "timekeeper_error" => run_timekeeper_error(cell),
        other => Err(format!("unknown ablation {other}")),
    });

    let rows_of = |name: &'static str| {
        outcome
            .rows
            .iter()
            .filter(move |r| r.metric("ablation").and_then(Json::as_str) == Some(name))
    };

    println!("— segment size (BC, continuous power) —");
    println!("{:>8} {:>8} {:>12}", "seg (B)", "ckpts", "cycles");
    for r in rows_of("segment_size") {
        exp.check("runs", r.status == CellStatus::Ok, || {
            format!("cell {}: {}", r.cell, r.outcome)
        });
        println!(
            "{:>8} {:>8} {:>12}",
            r.metric_u64("x").unwrap_or(0),
            r.checkpoints,
            r.cycles
        );
    }
    println!("\n— undo-log capacity (CF, continuous power) —");
    println!("{:>10} {:>8} {:>12}", "entries", "ckpts", "cycles");
    for r in rows_of("undo_capacity") {
        exp.check("runs", r.status == CellStatus::Ok, || {
            format!("cell {}: {}", r.cell, r.outcome)
        });
        println!(
            "{:>10} {:>8} {:>12}",
            r.metric_u64("x").unwrap_or(0),
            r.checkpoints,
            r.cycles
        );
    }
    println!("\n— checkpoint policy (BC on 8 ms / 1 ms intermittent power) —");
    println!("{:<16} {:>14} {:>8}", "policy", "on-time (us)", "ckpts");
    for r in rows_of("checkpoint_policy") {
        println!(
            "{:<16} {:>14} {:>8}   {}",
            r.metric("x").and_then(Json::as_str).unwrap_or("?"),
            r.cycles,
            r.checkpoints,
            r.outcome
        );
    }
    println!("\n— timekeeper accuracy (AR violations vs remanence-timer error) —");
    println!("{:>10} {:>12} {:>12}", "error", "violations", "discards");
    for r in rows_of("timekeeper_error") {
        exp.check("runs", r.status == CellStatus::Ok, || {
            format!("cell {}: {}", r.cell, r.outcome)
        });
        println!(
            "{:>10} {:>12} {:>12}",
            r.metric("x").and_then(Json::as_str).unwrap_or("?"),
            r.metric_u64("violations").unwrap_or(0),
            r.metric_u64("discards").unwrap_or(0)
        );
    }
    println!(
        "\n(Underestimated off-time makes stale data look fresh: beyond a few\n\
         percent of error, expiration guards start admitting expired windows —\n\
         why the paper calls persistent timekeeping 'mandatory'.)"
    );

    let samples = Json::Arr(
        outcome
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .field(
                        "ablation",
                        r.metric("ablation").cloned().unwrap_or(Json::Null),
                    )
                    .field("x", r.metric("x").cloned().unwrap_or(Json::Null))
                    .field("cycles", r.cycles)
                    .field("checkpoints", r.checkpoints)
                    .field(
                        "violations",
                        r.metric("violations").cloned().unwrap_or(Json::Null),
                    )
                    .field("outcome", r.outcome.as_str())
                    .build()
            })
            .collect(),
    );
    exp.finish(&samples)
}
