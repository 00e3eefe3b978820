//! Adversarial power-failure fault injection against the
//! crash-consistency oracle.
//!
//! Sweeps (corpus program × system × cut-point strategy): each cell
//! replays a golden trace under hundreds of fault plans, judges every
//! replay with the idempotent-prefix oracle, and shrinks the first
//! violation to a minimal cut set the journal can replay verbatim.
//!
//! Exit status is the verdict on Table 5's memory-consistency column:
//! any system that *claims* consistency but diverges fails the build,
//! and the headline demonstration — naive checkpointing diverges on a
//! plan TICS survives — must reproduce.
//!
//! `--quick` runs a reduced CI grid.

use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{claims_consistency, Experiment, SWEEP};
use tics_bench::fault::{
    build_fault_program, cuts_string, fault_budget_us, golden_run, judge, parse_cuts,
    run_fault_cell, run_plan, FaultProgram, Strategy, Verdict, GUARD_BOOTS,
};
use tics_bench::journal::JournalRow;
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_energy::FaultPlan;

/// The gate every consistency-claiming runtime's cells fold into.
const CLAIMS: &str = "consistency claims";

/// The gate the headline naive-diverges / TICS-survives demo folds into.
const DEMO: &str = "naive divergence demo";

/// The journaled metrics each `results/fault.json` entry copies, after
/// its program and system.
const MATRIX: [&str; 6] = [
    "strategy",
    "claims_consistency",
    "trials",
    "violations",
    "livelocks",
    "torn_write_trials",
];

/// The replayable counterexample a naive row journals: its program and
/// shrunk plan, or `None` when the shrunk plan has no cuts (a probe's
/// periodic tail is not replayable from cuts alone).
fn demo_plan(row: &JournalRow) -> Result<Option<(FaultProgram, FaultPlan)>, String> {
    let program = FaultProgram::from_name(&row.app)
        .ok_or_else(|| format!("unknown corpus program {:?}", row.app))?;
    let shrunk = row.metric("shrunk_cuts").and_then(Json::as_str);
    let cuts = parse_cuts(shrunk.ok_or("no shrunk_cuts")?)?;
    let off_us = row.metric_u64("off_us").ok_or("no off_us")?;
    Ok((!cuts.is_empty()).then(|| (program, FaultPlan::new(cuts, off_us))))
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("fault", &[&SWEEP[..], &["--quick"]].concat());
    let quick = exp.args.quick;
    println!("Fault injection: adversarial cut points vs the consistency oracle\n");

    let programs: &[FaultProgram] = if quick {
        &[FaultProgram::NvAccumulator, FaultProgram::LcgStream]
    } else {
        &FaultProgram::ALL
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Chinchilla,
            SystemUnderTest::Ratchet,
            SystemUnderTest::Alpaca,
        ]
    } else {
        &SystemUnderTest::ALL
    };
    let strategies: &[Strategy] = if quick {
        &[Strategy::Stride]
    } else {
        &Strategy::ALL
    };
    let (stride_trials, random_trials) = if quick { (40, 12) } else { (200, 64) };

    let mut sweep = exp.sweep();
    for &p in programs {
        for &system in systems {
            for &strategy in strategies {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(p.name())
                        .param("program", p.name())
                        .param("strategy", strategy.name()),
                );
            }
        }
    }

    let outcome = exp.run(sweep, |cell| {
        let program = FaultProgram::from_name(cell.param_str("program"))
            .ok_or_else(|| "unknown corpus program".to_string())?;
        let strategy = Strategy::from_name(cell.param_str("strategy"))
            .ok_or_else(|| "unknown strategy".to_string())?;
        let prog = match build_fault_program(program, cell.system) {
            Ok(p) => p,
            Err(reason) => {
                return Ok(CellOutput {
                    outcome: format!("unsupported: {reason}"),
                    ..CellOutput::default()
                }
                .with("supported", false));
            }
        };
        let golden = golden_run(&prog, cell.system)?;
        let trials = match strategy {
            Strategy::Stride => stride_trials,
            Strategy::Random => random_trials,
            Strategy::Probe => 0, // probe brings its own period ladder
        };
        let claims = claims_consistency(cell.system);
        let report = run_fault_cell(&prog, cell.system, &golden, strategy, trials, cell.seed);
        let mut out = CellOutput {
            outcome: if report.violations > 0 {
                format!("{} violations", report.violations)
            } else {
                "consistent".to_string()
            },
            cycles: report.total_cycles,
            power_failures: report.failures_injected,
            text_bytes: prog.text_bytes(),
            data_bytes: prog.data_bytes(),
            ..CellOutput::default()
        }
        .with("supported", true)
        .with("claims_consistency", claims);
        for (key, value) in report.counters() {
            out = out.with(key, value);
        }
        if let Some(v) = &report.first_violation {
            out = out
                .with("violation_verdict", v.verdict.as_str())
                .with("violation_detail", v.detail.as_str())
                .with("violation_cuts", cuts_string(&v.plan))
                .with("shrunk_cuts", cuts_string(&v.shrunk))
                .with("off_us", v.shrunk.off_us);
        }
        Ok(out)
    });

    // ---- table ----
    println!(
        "\n{:<15} {:<11} {:<7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5}  shrunk cuts",
        "program", "system", "strat", "trials", "ok", "div", "live", "torn", "viol"
    );
    let count = |row: &JournalRow, k: &str| row.metric_u64(k).unwrap_or(0);
    let mut matrix = Vec::new();
    let mut naive_demo: Option<(FaultProgram, FaultPlan)> = None;
    for row in exp.claim_rows(CLAIMS, &outcome) {
        let supported = row.metric("supported").and_then(Json::as_bool) == Some(true);
        if !supported {
            println!(
                "{:<15} {:<11} {:<7} {}",
                row.app, row.system, "-", row.outcome
            );
            continue;
        }
        let text = move |k: &str| row.metric(k).and_then(Json::as_str).unwrap_or("");
        let strategy = text("strategy");
        let violations = count(row, "violations");
        let shrunk = text("shrunk_cuts");
        println!(
            "{:<15} {:<11} {:<7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5}  {}",
            row.app,
            row.system,
            strategy,
            count(row, "trials"),
            count(row, "consistent"),
            count(row, "divergent"),
            count(row, "livelocks"),
            count(row, "torn_write_trials"),
            violations,
            shrunk,
        );
        let claims = row.metric("claims_consistency").and_then(Json::as_bool) == Some(true);
        exp.check(CLAIMS, !(claims && violations > 0), || {
            format!(
                "{} x {} ({strategy}): {violations} violations, cuts [{}] — {}",
                row.app,
                row.system,
                shrunk,
                text("violation_detail"),
            )
        });
        // First shrunk naive divergence becomes the headline demo.
        if naive_demo.is_none() && row.system == SystemUnderTest::Mementos.name() && violations > 0
        {
            match demo_plan(row) {
                Ok(demo) => naive_demo = demo,
                Err(e) => exp.check(DEMO, false, || {
                    format!(
                        "cell {} ({} x {}): malformed row: {e}",
                        row.cell, row.app, row.system
                    )
                }),
            }
        }
        matrix.push(
            Json::obj()
                .field("program", row.app.as_str())
                .field("system", row.system.as_str())
                .fields(row.project(&MATRIX))
                .field("shrunk_cuts", shrunk)
                .build(),
        );
    }
    // ---- headline demo: naive diverges, TICS survives the same plan ----
    let mut demo_ok = false;
    if let Some((program, plan)) = &naive_demo {
        let tics = SystemUnderTest::Tics;
        match build_fault_program(*program, tics).and_then(|prog| {
            let golden = golden_run(&prog, tics)?;
            let budget = fault_budget_us(&golden);
            Ok(judge(
                &golden,
                &run_plan(&prog, tics, plan, budget, GUARD_BOOTS),
            ))
        }) {
            Ok(verdict) => {
                demo_ok = verdict == Verdict::Consistent;
                println!(
                    "\ndemo: naive-mementos diverges on {} with cuts [{}]; \
                     TICS on the same plan: {}",
                    program.name(),
                    cuts_string(plan),
                    verdict.label(),
                );
            }
            Err(e) => println!("\ndemo: TICS replay failed to build: {e}"),
        }
    }
    exp.check(DEMO, naive_demo.is_some(), || {
        "no reproducible naive-mementos divergence found".to_string()
    });
    exp.check(DEMO, naive_demo.is_none() || demo_ok, || {
        "TICS did not survive the shrunk naive-divergence plan".to_string()
    });
    exp.finish(&Json::Arr(matrix))
}
