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
    build_fault_program, cuts_string, fault_budget_us, golden_run, judge, parse_cuts, run_fault_cell,
    run_plan, FaultProgram, Strategy, Verdict, GUARD_BOOTS, OFF_US,
};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_energy::FaultPlan;

fn strategy_from(name: &str) -> Strategy {
    Strategy::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or(Strategy::Stride)
}

/// The gate every consistency-claiming runtime's cells fold into.
const CLAIMS: &str = "consistency claims";

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
        let strategy = strategy_from(cell.param_str("strategy"));
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
        .with("claims_consistency", claims)
        .with("golden_events", report.golden_events)
        .with("golden_cycles", report.golden_cycles)
        .with("trials", report.trials)
        .with("consistent", report.consistent)
        .with("divergent", report.divergent)
        .with("wrong_exit", report.wrong_exit)
        .with("incomplete", report.incomplete)
        .with("livelocks", report.livelocks)
        .with("errors", report.errors)
        .with("violations", report.violations)
        .with("torn_write_trials", report.torn_write_trials);
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
    let metric_u64 =
        |row: &tics_bench::journal::JournalRow, k: &str| row.metric(k).and_then(Json::as_u64);
    let metric_str = |row: &tics_bench::journal::JournalRow, k: &str| {
        row.metric(k)
            .and_then(Json::as_str)
            .map(ToString::to_string)
    };
    let mut matrix = Vec::new();
    let mut naive_demo: Option<(FaultProgram, Vec<u64>, u64)> = None;
    for row in exp.claim_rows(CLAIMS, &outcome) {
        let supported = row.metric("supported").and_then(Json::as_bool) == Some(true);
        if !supported {
            println!(
                "{:<15} {:<11} {:<7} {}",
                row.app, row.system, "-", row.outcome
            );
            continue;
        }
        let strategy = metric_str(row, "strategy").unwrap_or_default();
        let violations = metric_u64(row, "violations").unwrap_or(0);
        let shrunk = metric_str(row, "shrunk_cuts").unwrap_or_default();
        println!(
            "{:<15} {:<11} {:<7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5}  {}",
            row.app,
            row.system,
            strategy,
            metric_u64(row, "trials").unwrap_or(0),
            metric_u64(row, "consistent").unwrap_or(0),
            metric_u64(row, "divergent").unwrap_or(0),
            metric_u64(row, "livelocks").unwrap_or(0),
            metric_u64(row, "torn_write_trials").unwrap_or(0),
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
                metric_str(row, "violation_detail").unwrap_or_default(),
            )
        });
        // First shrunk naive divergence becomes the headline demo.
        if naive_demo.is_none() && row.system == SystemUnderTest::Mementos.name() && violations > 0
        {
            if let (Some(p), Some(cuts)) = (
                FaultProgram::from_name(&row.app),
                metric_str(row, "shrunk_cuts").map(|s| parse_cuts(&s)),
            ) {
                if !cuts.is_empty() {
                    let off = metric_u64(row, "off_us").unwrap_or(OFF_US);
                    naive_demo = Some((p, cuts, off));
                }
            }
        }
        matrix.push(
            Json::obj()
                .field("program", row.app.as_str())
                .field("system", row.system.as_str())
                .field("strategy", strategy.as_str())
                .field("claims_consistency", claims)
                .field("trials", metric_u64(row, "trials").unwrap_or(0))
                .field("violations", violations)
                .field("livelocks", metric_u64(row, "livelocks").unwrap_or(0))
                .field(
                    "torn_write_trials",
                    metric_u64(row, "torn_write_trials").unwrap_or(0),
                )
                .field("shrunk_cuts", shrunk.as_str())
                .build(),
        );
    }
    // ---- headline demo: naive diverges, TICS survives the same plan ----
    let mut demo_ok = false;
    if let Some((program, cuts, off_us)) = &naive_demo {
        let plan = FaultPlan::new(cuts.clone(), *off_us);
        let tics = SystemUnderTest::Tics;
        match build_fault_program(*program, tics).and_then(|prog| {
            let golden = golden_run(&prog, tics)?;
            Ok((
                judge(
                    &golden,
                    &run_plan(&prog, tics, &plan, fault_budget_us(&golden), GUARD_BOOTS),
                ),
                golden,
            ))
        }) {
            Ok((verdict, _)) => {
                demo_ok = verdict == Verdict::Consistent;
                println!(
                    "\ndemo: naive-mementos diverges on {} with cuts [{}]; \
                     TICS on the same plan: {}",
                    program.name(),
                    cuts_string(&plan),
                    verdict.label(),
                );
            }
            Err(e) => println!("\ndemo: TICS replay failed to build: {e}"),
        }
    }
    exp.check("naive divergence demo", naive_demo.is_some(), || {
        "no reproducible naive-mementos divergence found".to_string()
    });
    exp.check("naive divergence demo", naive_demo.is_none() || demo_ok, || {
        "TICS did not survive the shrunk naive-divergence plan".to_string()
    });
    exp.finish(&Json::Arr(matrix))
}
