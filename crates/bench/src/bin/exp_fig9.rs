//! Figure 9 — benchmark performance, three panels (§5.3).
//!
//! As in the paper, the runs execute a fixed workload on *continuous*
//! power and compare execution time (cycles = µs at 1 MHz):
//!
//! * **left** — TICS vs Chinchilla across optimization levels
//!   (Chinchilla ✗ on recursive BC),
//! * **center** — TICS micro-benchmark: checkpoint count and overhead vs
//!   working-stack size (`S1`, `S2`, and the `*` variants with a 10 ms
//!   checkpoint timer),
//! * **right** — TICS (`S1*`, `S2*`, `ST`) vs the naive MementOS-style
//!   system and the task kernels (MayFly ✗ on CF).
//!
//! Every bar in every panel is one sweep cell tagged with a `panel`
//! param, so the whole figure runs as one parallel sweep into
//! `results/fig9.jsonl`. Run with an optional panel argument: `left`,
//! `center`, `right`, or nothing for all three.

use tics_apps::workload::ar_trace;
use tics_apps::{ar, build_app, App, SystemUnderTest};
use tics_bench::experiment::{Experiment, PANEL, SWEEP};
use tics_bench::journal::{CellStatus, JournalRow};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::ContinuousPower;
use tics_minic::opt::OptLevel;
use tics_minic::passes;
use tics_vm::{Executor, Machine, MachineConfig};

const SCALE: u32 = 30;
const BUDGET: u64 = 60_000_000_000;

fn sensor_trace_for(app: App) -> Vec<i32> {
    match app {
        App::Ar => ar_trace(SCALE * 2, ar::WINDOW, 4, 99).0,
        _ => Vec::new(),
    }
}

/// Runs a built program + runtime pair to completion on continuous power.
fn run(
    prog: tics_minic::Program,
    rt: &mut dyn tics_vm::IntermittentRuntime,
    app: App,
) -> Result<CellOutput, String> {
    let mut m = Machine::new(
        prog,
        MachineConfig {
            sensor_trace: sensor_trace_for(app).into(),
            ..MachineConfig::default()
        },
    )
    .expect("loads");
    let out = Executor::new()
        .with_time_budget(BUDGET)
        .run(&mut m, rt, &mut ContinuousPower::new())
        .map_err(|e| format!("{e:?}"))?;
    if out.exit_code().is_none() {
        return Err(format!("{} did not finish: {out:?}", rt.name()));
    }
    Ok(CellOutput {
        outcome: "finished".to_string(),
        exit_code: out.exit_code(),
        cycles: m.cycles(),
        checkpoints: m.stats().checkpoints,
        restores: m.stats().restores,
        undo_appends: m.stats().undo_log_appends,
        spans: m.mem.span_cycles_all(),
        ..CellOutput::default()
    })
}

/// Runs `app` under `system` with that system's default runtime.
fn run_system(cell: &Cell) -> Result<CellOutput, String> {
    let prog = build_app(
        cell.app,
        cell.system,
        cell.opt,
        tics_apps::build::Scale(cell.scale),
    )
    .map_err(|e| e.to_string())?;
    let mut rt = tics_apps::build::make_runtime(cell.system, &prog);
    run(prog, rt.as_mut(), cell.app)
}

/// Builds the TICS image of `app` and runs it with an explicit config
/// named by the cell's `seg` ("s1"/"s2"), `timer_us`, and `st` params.
fn run_tics_config(cell: &Cell) -> Result<CellOutput, String> {
    let mut prog = build_app(
        cell.app,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_apps::build::Scale(cell.scale),
    )
    .map_err(|e| e.to_string())?;
    if cell.param_value("st").and_then(Json::as_bool) == Some(true) {
        passes::add_task_boundary_checkpoints(&mut prog, st_boundaries(cell.app));
    }
    let s1 = TicsConfig::s1_seg_size(&prog);
    let seg = match cell.param_str("seg") {
        "s1" => s1,
        _ => 4 * s1,
    };
    let timer = cell.param_value("timer_us").and_then(Json::as_u64);
    let mut cfg = TicsConfig::s2().with_seg_size(seg).with_timer(timer);
    // Keep the segment array byte size comparable across seg sizes.
    cfg.n_segments = (2048 / cfg.seg_size).max(4);
    let seg_bytes = cfg.seg_size;
    let mut rt = TicsRuntime::new(cfg);
    run(prog, &mut rt, cell.app).map(|out| out.with("seg_bytes", seg_bytes))
}

fn st_boundaries(app: App) -> &'static [&'static str] {
    match app {
        App::Bc => &["verify_one"],
        App::Cuckoo => &["insert", "lookup"],
        _ => &[],
    }
}

const APPS: [App; 3] = [App::Ar, App::Bc, App::Cuckoo];

fn tics_cell(app: App, panel: &str, config: &str, seg: &str, timer: Option<i64>, st: bool) -> Cell {
    let mut cell = Cell::new(app, SystemUnderTest::Tics)
        .scale(SCALE)
        .budget(BUDGET)
        .param("panel", panel)
        .param("config", config)
        .param("seg", seg)
        .param("st", st);
    if let Some(t) = timer {
        cell = cell.param("timer_us", t);
    }
    cell
}

fn find<'a>(rows: &'a [JournalRow], panel: &str, app: App, config: &str) -> &'a JournalRow {
    rows.iter()
        .find(|r| {
            r.metric("panel").and_then(Json::as_str) == Some(panel)
                && r.app == app.name()
                && r.metric("config").and_then(Json::as_str) == Some(config)
        })
        .unwrap_or_else(|| panic!("row {panel}/{}/{config} missing", app.name()))
}

fn cycles_of(r: &JournalRow) -> Option<u64> {
    (r.status == CellStatus::Ok).then_some(r.cycles)
}

/// Fails the `runs` gate unless `r` ran.
fn require_ok(exp: &mut Experiment, r: &JournalRow, label: &str) {
    exp.check("runs", r.status == CellStatus::Ok, || {
        format!("{} {label}: {}", r.app, r.outcome)
    });
}

fn print_left(exp: &mut Experiment, rows: &[JournalRow], points: &mut Vec<Json>) {
    println!("— left: TICS vs Chinchilla across optimization levels —");
    println!(
        "{:<4} {:<4} {:>12} {:>14} {:>10}",
        "app", "opt", "TICS (us)", "Chinchilla(us)", "plain (us)"
    );
    for app in APPS {
        for opt in OptLevel::ALL {
            let plain = find(rows, "left", app, &format!("plain-{opt}"));
            let tics = find(rows, "left", app, &format!("TICS-{opt}"));
            let chin = find(rows, "left", app, &format!("Chinchilla-{opt}"));
            require_ok(exp, plain, &format!("plain-{opt}"));
            require_ok(exp, tics, &format!("TICS-{opt}"));
            println!(
                "{:<4} {:<4} {:>12} {:>14} {:>10}",
                app.name(),
                opt.to_string(),
                tics.cycles,
                cycles_of(chin).map_or("x".to_string(), |c| c.to_string()),
                plain.cycles,
            );
            for (label, r) in [
                (format!("TICS-{opt}"), tics),
                (format!("Chinchilla-{opt}"), chin),
            ] {
                points.push(
                    Json::obj()
                        .field("panel", "left")
                        .field("app", app.name())
                        .field("config", label)
                        .field("cycles", cycles_of(r))
                        .field(
                            "checkpoints",
                            (r.status == CellStatus::Ok).then_some(r.checkpoints),
                        )
                        .field(
                            "overhead_vs_plain",
                            cycles_of(r).map(|c| c as f64 / plain.cycles as f64),
                        )
                        .build(),
                );
            }
        }
    }
    println!();
}

fn print_center(exp: &mut Experiment, rows: &[JournalRow], points: &mut Vec<Json>) {
    println!("— center: TICS checkpoints vs working-stack size —");
    println!(
        "{:<4} {:<10} {:>10} {:>12}",
        "app", "config", "ckpts", "cycles (us)"
    );
    for app in APPS {
        for label in ["S1", "S2", "S1*", "S2*"] {
            let r = find(rows, "center", app, label);
            require_ok(exp, r, label);
            let seg = r.metric_u64("seg_bytes").unwrap_or(0);
            println!(
                "{:<4} {:<10} {:>10} {:>12}",
                app.name(),
                label,
                r.checkpoints,
                r.cycles
            );
            points.push(
                Json::obj()
                    .field("panel", "center")
                    .field("app", app.name())
                    .field("config", format!("{label} ({seg}B)"))
                    .field("cycles", r.cycles)
                    .field("checkpoints", r.checkpoints)
                    .field("overhead_vs_plain", Json::Null)
                    .build(),
            );
        }
    }
    println!();
}

fn print_right(exp: &mut Experiment, rows: &[JournalRow], points: &mut Vec<Json>) {
    println!("— right: TICS vs naive and task-based systems —");
    println!(
        "{:<4} {:<12} {:>12} {:>10}",
        "app", "system", "cycles (us)", "ckpts"
    );
    for app in APPS {
        for label in [
            "TICS-S1*",
            "TICS-S2*",
            "TICS-ST",
            SystemUnderTest::Mementos.name(),
            SystemUnderTest::Alpaca.name(),
            SystemUnderTest::Ink.name(),
            SystemUnderTest::Mayfly.name(),
        ] {
            let r = find(rows, "right", app, label);
            if label.starts_with("TICS") {
                require_ok(exp, r, label);
            }
            println!(
                "{:<4} {:<12} {:>12} {:>10}",
                app.name(),
                label,
                cycles_of(r).map_or("x".to_string(), |c| c.to_string()),
                (r.status == CellStatus::Ok)
                    .then_some(r.checkpoints)
                    .map_or("-".to_string(), |c| c.to_string()),
            );
            points.push(
                Json::obj()
                    .field("panel", "right")
                    .field("app", app.name())
                    .field("config", label)
                    .field("cycles", cycles_of(r))
                    .field(
                        "checkpoints",
                        (r.status == CellStatus::Ok).then_some(r.checkpoints),
                    )
                    .field("overhead_vs_plain", Json::Null)
                    .build(),
            );
        }
        println!();
    }
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("fig9", &[&SWEEP[..], &[PANEL]].concat());
    let panel = exp.args.panel.clone();
    let want = |p: &str| panel.as_ref().is_none_or(|panel| panel == p);
    println!("Figure 9: benchmark performance ({SCALE} work items per app)\n");

    let mut sweep = exp.sweep();
    if want("left") {
        for app in APPS {
            for opt in OptLevel::ALL {
                for system in [
                    SystemUnderTest::PlainC,
                    SystemUnderTest::Tics,
                    SystemUnderTest::Chinchilla,
                ] {
                    let config = match system {
                        SystemUnderTest::PlainC => format!("plain-{opt}"),
                        SystemUnderTest::Tics => format!("TICS-{opt}"),
                        _ => format!("Chinchilla-{opt}"),
                    };
                    sweep = sweep.cell(
                        Cell::new(app, system)
                            .opt(opt)
                            .scale(SCALE)
                            .budget(BUDGET)
                            .param("panel", "left")
                            .param("config", config),
                    );
                }
            }
        }
    }
    if want("center") {
        for app in APPS {
            for (label, seg, timer) in [
                ("S1", "s1", None),
                ("S2", "s2", None),
                ("S1*", "s1", Some(10_000i64)),
                ("S2*", "s2", Some(10_000)),
            ] {
                sweep = sweep.cell(tics_cell(app, "center", label, seg, timer, false));
            }
        }
    }
    if want("right") {
        for app in APPS {
            sweep = sweep.cell(tics_cell(
                app,
                "right",
                "TICS-S1*",
                "s1",
                Some(10_000),
                false,
            ));
            sweep = sweep.cell(tics_cell(
                app,
                "right",
                "TICS-S2*",
                "s2",
                Some(10_000),
                false,
            ));
            sweep = sweep.cell(tics_cell(app, "right", "TICS-ST", "s2", Some(10_000), true));
            for system in [
                SystemUnderTest::Mementos,
                SystemUnderTest::Alpaca,
                SystemUnderTest::Ink,
                SystemUnderTest::Mayfly,
            ] {
                sweep = sweep.cell(
                    Cell::new(app, system)
                        .opt(OptLevel::O2)
                        .scale(SCALE)
                        .budget(BUDGET)
                        .param("panel", "right")
                        .param("config", system.name()),
                );
            }
        }
    }

    let outcome = exp.run(sweep, |cell| {
        if cell.system == SystemUnderTest::Tics && cell.param_str("panel") != "left" {
            run_tics_config(cell)
        } else {
            run_system(cell)
        }
    });

    let mut points = Vec::new();
    if want("left") {
        print_left(&mut exp, &outcome.rows, &mut points);
    }
    if want("center") {
        print_center(&mut exp, &outcome.rows, &mut points);
    }
    if want("right") {
        print_right(&mut exp, &outcome.rows, &mut points);
    }
    exp.finish(&Json::Arr(points))
}
