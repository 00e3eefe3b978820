//! Brown-out corruption chaos sweep against the detect-or-die oracle.
//!
//! Sweeps (corruption rate × system × corpus program): every cell
//! replays seeded multi-cut fault plans with the brown-out corruption
//! model riding on each cut — stores issued in the at-risk window
//! before the cut bit-flip or drop, and SRAM is clobbered across the
//! outage. The oracle's rule is *detect or die*: a runtime facing
//! corrupted checkpoint state may recover (CRC-validated fallback to
//! the older bank, or a declared fresh start), or it may trap loudly —
//! but silently computing on garbage is a `corrupted-state` violation.
//!
//! Exit status is the robustness verdict: any system that claims
//! memory consistency must show a 100% detect-or-recover rate, and the
//! un-hardened naive checkpointer (the control) must demonstrably
//! *fail* — if it stops failing, the corruption model has gone soft and
//! the whole experiment is vacuous.
//!
//! `--quick` runs a reduced CI grid.

use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{claims_consistency, Experiment, SWEEP};
use tics_bench::fault::{
    build_fault_program, golden_run, run_chaos_cell, FaultProgram, CHAOS_WINDOW,
};
use tics_bench::journal::JournalRow;
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;

/// The gate every consistency-claiming runtime's cells fold into.
const CLAIMS: &str = "detect-or-die claims";

/// The journaled metrics each `results/chaos.json` entry copies, after
/// its program and system.
const MATRIX: [&str; 11] = [
    "rate",
    "claims_consistency",
    "trials",
    "consistent",
    "detected",
    "corrupted_state",
    "livelocks",
    "corrupted_write_trials",
    "recoveries",
    "detect_or_recover_rate",
    "mean_reboots_to_recover",
];

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("chaos", &[&SWEEP[..], &["--quick"]].concat());
    let quick = exp.args.quick;
    println!(
        "Chaos: brown-out corruption (window {CHAOS_WINDOW} cycles) vs the \
         detect-or-die oracle\n"
    );

    let programs: &[FaultProgram] = if quick {
        &[FaultProgram::NvAccumulator, FaultProgram::LcgStream]
    } else {
        &[
            FaultProgram::NvAccumulator,
            FaultProgram::LcgStream,
            FaultProgram::TaskPipeline,
        ]
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Ratchet,
        ]
    } else {
        &[
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Ratchet,
            SystemUnderTest::Chinchilla,
            SystemUnderTest::Alpaca,
        ]
    };
    let rates: &[f64] = if quick { &[0.4] } else { &[0.15, 0.3, 0.5] };
    let trials = if quick { 16 } else { 32 };

    let mut sweep = exp.sweep();
    for &rate in rates {
        for &system in systems {
            for &p in programs {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(p.name())
                        .param("program", p.name())
                        .param("rate", rate),
                );
            }
        }
    }

    let outcome = exp.run(sweep, |cell| {
        let program = FaultProgram::from_name(cell.param_str("program"))
            .ok_or_else(|| "unknown corpus program".to_string())?;
        let rate = cell
            .param_value("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| "rate param missing".to_string())?;
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
        let claims = claims_consistency(cell.system);
        let report = run_chaos_cell(&prog, cell.system, &golden, rate, trials, cell.seed);
        let mut out = CellOutput {
            outcome: if report.corrupted_state > 0 {
                format!("{} corrupted-state", report.corrupted_state)
            } else {
                "detect-or-recover".to_string()
            },
            cycles: report.total_cycles,
            power_failures: report.failures_injected,
            restores: report.recoveries,
            text_bytes: prog.text_bytes(),
            data_bytes: prog.data_bytes(),
            ..CellOutput::default()
        }
        .with("supported", true)
        .with("claims_consistency", claims);
        for (key, value) in report.counters() {
            out = out.with(key, value);
        }
        out = out
            .with("detect_or_recover_rate", report.detect_or_recover_rate())
            .with("mean_reboots_to_recover", report.mean_reboots_to_recover());
        if let Some(d) = &report.first_corruption {
            out = out.with("corruption_detail", d.as_str());
        }
        Ok(out)
    });

    // ---- table ----
    println!(
        "\n{:<15} {:<11} {:>5} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} {:>8}",
        "program",
        "system",
        "rate",
        "trials",
        "ok",
        "die",
        "sick",
        "live",
        "hits",
        "d-or-r",
        "reboots"
    );
    let count = |row: &JournalRow, k: &str| row.metric_u64(k).unwrap_or(0);
    let mut matrix = Vec::new();
    let mut naive_corrupted_state = 0u64;
    let mut naive_trials = 0u64;
    for row in exp.claim_rows(CLAIMS, &outcome) {
        if row.metric("supported").and_then(Json::as_bool) != Some(true) {
            println!("{:<15} {:<11} {}", row.app, row.system, row.outcome);
            continue;
        }
        let rate = row.metric_f64("rate").unwrap_or(0.0);
        let corrupted_state = count(row, "corrupted_state");
        let claims = row.metric("claims_consistency").and_then(Json::as_bool) == Some(true);
        println!(
            "{:<15} {:<11} {:>5.2} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8.3} {:>8.2}",
            row.app,
            row.system,
            rate,
            count(row, "trials"),
            count(row, "consistent"),
            count(row, "detected"),
            corrupted_state,
            count(row, "livelocks"),
            count(row, "corrupted_write_trials"),
            row.metric_f64("detect_or_recover_rate").unwrap_or(0.0),
            row.metric_f64("mean_reboots_to_recover").unwrap_or(0.0),
        );
        exp.check(CLAIMS, !(claims && corrupted_state > 0), || {
            format!(
                "{} x {} @ rate {rate}: {corrupted_state} corrupted-state trials — {}",
                row.app,
                row.system,
                row.metric("corruption_detail")
                    .and_then(Json::as_str)
                    .unwrap_or("no detail"),
            )
        });
        if row.system == SystemUnderTest::Mementos.name() {
            naive_corrupted_state += corrupted_state;
            naive_trials += count(row, "trials");
        }
        matrix.push(
            Json::obj()
                .field("program", row.app.as_str())
                .field("system", row.system.as_str())
                .fields(row.project(&MATRIX))
                .build(),
        );
    }
    exp.check("naive control bites", naive_corrupted_state > 0, || {
        format!(
            "the un-hardened naive control produced no corrupted-state verdict in \
             {naive_trials} trials — the corruption model is not biting"
        )
    });
    exp.finish(&Json::Arr(matrix))
}
