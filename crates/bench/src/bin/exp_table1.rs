//! Table 1 — greenhouse monitoring (GHM) on intermittent power.
//!
//! Runs the plain-C and TinyOS-style GHM applications, with and without
//! TICS, under 4 % / 48 % / 100 % intermittency (fraction of wall-clock
//! time powered), for a fixed experiment window. Reports how many times
//! each routine completed and whether the run is consistent (all four
//! routine counters equal) — the paper's Table 1. The 12 cells run as
//! one parallel sweep; `results/table1.jsonl` keeps the per-cell
//! evidence.

use tics_apps::{build_app, ghm, App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::JournalRow;
use tics_bench::sweep::{Cell, CellOutput, SupplySpec};
use tics_bench::Json;
use tics_energy::{DutyCycleTrace, PowerSupply, RecordedTrace};
use tics_minic::opt::OptLevel;
use tics_vm::Executor;

/// Experiment window in true microseconds (on + off).
const WINDOW_US: u64 = 3_000_000;
/// Nominal on/off cycle length of the reset pattern.
const PERIOD_US: u64 = 50_000;

/// The reset pattern: a recorded trace covering the experiment window,
/// sampled from a duty-cycle generator seeded by the cell.
fn supply_for(duty_pct: u32, seed: u64) -> RecordedTrace {
    if duty_pct >= 100 {
        return RecordedTrace::new([(WINDOW_US, 0)]);
    }
    let mut gen = DutyCycleTrace::new(f64::from(duty_pct) / 100.0, PERIOD_US, 0.25, seed | 1);
    let mut total = 0u64;
    let mut periods = Vec::new();
    while total < WINDOW_US {
        let p = gen.next_period().expect("duty trace is infinite");
        periods.push((p.on_us, p.off_us));
        total += p.on_us + p.off_us;
    }
    RecordedTrace::new(periods)
}

fn variant_name(app: App, system: SystemUnderTest) -> &'static str {
    match (app, system) {
        (App::Ghm, SystemUnderTest::PlainC) => "plain C",
        (App::Ghm, SystemUnderTest::Tics) => "plain C + TICS",
        (App::GhmTinyos, SystemUnderTest::PlainC) => "TinyOS",
        (App::GhmTinyos, SystemUnderTest::Tics) => "TinyOS + TICS",
        _ => "?",
    }
}

fn run_cell(cell: &Cell) -> Result<CellOutput, String> {
    let duty = u32::try_from(cell.param_i64("duty")).expect("duty fits u32");
    let prog = build_app(
        cell.app,
        cell.system,
        cell.opt,
        tics_apps::build::Scale(cell.scale),
    )
    .map_err(|e| e.to_string())?;
    let mut machine = cell.machine(&prog).expect("program loads");
    let mut runtime = tics_apps::build::make_runtime(cell.system, &prog);
    let mut supply = supply_for(duty, cell.seed);
    // The budget is the window's on-time share (generous upper bound).
    let _ = Executor::new()
        .with_time_budget(WINDOW_US)
        .run(&mut machine, runtime.as_mut(), &mut supply)
        .expect("run completes without traps");
    let c = ghm::read_counters(&machine);
    let stats = machine.stats();
    Ok(CellOutput {
        outcome: "window-elapsed".to_string(),
        cycles: machine.cycles(),
        checkpoints: stats.checkpoints,
        restores: stats.restores,
        power_failures: stats.power_failures,
        undo_appends: stats.undo_log_appends,
        text_bytes: prog.text_bytes(),
        data_bytes: prog.data_bytes(),
        spans: machine.mem.span_cycles_all(),
        ..CellOutput::default()
    }
    .with("variant", variant_name(cell.app, cell.system))
    .with("sense_moisture", c[0])
    .with("sense_temp", c[1])
    .with("compute", c[2])
    .with("send", c[3])
    .with("consistent", ghm::is_consistent(c)))
}

fn row_for<'a>(rows: &'a [JournalRow], duty: u32, variant: &str) -> &'a JournalRow {
    rows.iter()
        .find(|r| {
            r.metric_u64("duty") == Some(u64::from(duty))
                && r.metric("variant").and_then(Json::as_str) == Some(variant)
        })
        .expect("row exists")
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("table1", &SWEEP);
    println!("Table 1: GHM routine completions under intermittent power");
    println!(
        "(window {} s, reset pattern period {} ms)\n",
        WINDOW_US / 1_000_000,
        PERIOD_US / 1_000
    );

    let mut sweep = exp.sweep().seed(77);
    for duty in [4u32, 48, 100] {
        for (app, system) in [
            (App::Ghm, SystemUnderTest::PlainC),
            (App::Ghm, SystemUnderTest::Tics),
            (App::GhmTinyos, SystemUnderTest::PlainC),
            (App::GhmTinyos, SystemUnderTest::Tics),
        ] {
            let supply = if duty >= 100 {
                SupplySpec::Continuous
            } else {
                SupplySpec::DutyCycle {
                    duty: f64::from(duty) / 100.0,
                    period_us: PERIOD_US,
                    jitter: 0.25,
                }
            };
            sweep = sweep.cell(
                Cell::new(app, system)
                    .opt(OptLevel::O2)
                    .supply(supply)
                    .scale(100_000)
                    .budget(WINDOW_US)
                    .param("duty", duty),
            );
        }
    }
    let outcome = exp.run(sweep, run_cell);

    println!(
        "{:>5}  {:<16} {:>8} {:>8} {:>8} {:>8}  consistent",
        "duty", "variant", "moist", "temp", "compute", "send"
    );
    let mut table = Vec::new();
    for duty in [4u32, 48, 100] {
        for variant in ["plain C", "plain C + TICS", "TinyOS", "TinyOS + TICS"] {
            let r = row_for(&outcome.rows, duty, variant);
            let consistent = r
                .metric("consistent")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            println!(
                "{:>4}%  {:<16} {:>8} {:>8} {:>8} {:>8}  {}",
                duty,
                variant,
                r.metric_f64("sense_moisture").unwrap_or(0.0) as i64,
                r.metric_f64("sense_temp").unwrap_or(0.0) as i64,
                r.metric_f64("compute").unwrap_or(0.0) as i64,
                r.metric_f64("send").unwrap_or(0.0) as i64,
                if consistent { "yes" } else { "NO" }
            );
            table.push(
                Json::obj()
                    .field("intermittency_pct", duty)
                    .field("variant", variant)
                    .field(
                        "sense_moisture",
                        r.metric("sense_moisture").cloned().unwrap_or(Json::Null),
                    )
                    .field(
                        "sense_temp",
                        r.metric("sense_temp").cloned().unwrap_or(Json::Null),
                    )
                    .field(
                        "compute",
                        r.metric("compute").cloned().unwrap_or(Json::Null),
                    )
                    .field("send", r.metric("send").cloned().unwrap_or(Json::Null))
                    .field("consistent", consistent)
                    .build(),
            );
        }
        println!();
    }
    // Paper-shape checks (soft: print loudly if violated).
    for duty in [4u32, 48] {
        let plain = row_for(&outcome.rows, duty, "plain C");
        let tics = row_for(&outcome.rows, duty, "plain C + TICS");
        let plain_send = plain.metric_f64("send").unwrap_or(0.0) as i64;
        if plain.metric("consistent").and_then(Json::as_bool) == Some(true) && plain_send > 0 {
            println!("!! unexpected: plain C consistent at {duty}%");
        }
        if tics.metric("consistent").and_then(Json::as_bool) != Some(true) {
            println!("!! unexpected: TICS inconsistent at {duty}%");
        }
    }
    exp.finish(&Json::Arr(table))
}
