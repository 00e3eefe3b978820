//! Torn-wire peripheral sweep against the detect-or-recover oracle.
//!
//! Sweeps (workload × system × corruption rate): every cell replays
//! seeded multi-cut fault plans against the UART/I2C peripheral models,
//! whose device-side state — FIFO bytes already on the wire, the I2C
//! sensor's read-out cursor — persists across MCU reboots. Checkpoints
//! rewind the program, never the wire, so a runtime replaying from a
//! checkpoint re-drives half-completed I/O unless its driver layer
//! makes every transaction idempotent.
//!
//! The oracle judges each trial at the *device* side of the wire:
//! duplicate attempt-tagged frames, regressed or mutated print streams,
//! and payloads that don't match the sensor's own served-readings log
//! are violations; explicit traps are acceptable detections; journaled
//! retries, commit-window gaps, and stale-drops are counted recovery.
//!
//! Exit status is the robustness verdict: every system that claims
//! memory consistency must show a 100% detect-or-recover rate, and the
//! un-hardened controls (plain C and the naive checkpointer) must
//! demonstrably *fail* — if they stop failing, the torn-wire model has
//! gone soft and the experiment is vacuous. On a claim failure the
//! offending cell's wire-level exhibit (last wire bytes, decoded
//! frames, prints, served readings, cut schedule) lands in
//! `results/periph_wire_<workload>_<system>[_rNN].json`.
//!
//! `--quick` runs a reduced CI grid.

use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{claims_consistency, write_result, Experiment, SWEEP};
use tics_bench::journal::JournalRow;
use tics_bench::periph::{build_periph_program, periph_golden, run_periph_cell, PeriphWorkload};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;

/// The gate every consistency-claiming runtime's cells fold into.
const CLAIMS: &str = "detect-or-recover claims";

/// The journaled metrics each `results/periph.json` entry copies, after
/// its workload and system (`violation_detail` only where journaled).
const MATRIX: [&str; 18] = [
    "rate",
    "claims_consistency",
    "trials",
    "clean",
    "recovered",
    "detected",
    "violations",
    "livelocks",
    "incomplete",
    "retries",
    "txn_skips",
    "poisoned",
    "replayed_prints",
    "gaps",
    "stale_drops",
    "orphan_serves",
    "detect_or_recover_rate",
    "violation_detail",
];

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("periph", &[&SWEEP[..], &["--quick"]].concat());
    let quick = exp.args.quick;
    println!("Torn-wire peripherals vs the detect-or-recover oracle\n");

    let workloads: &[PeriphWorkload] = if quick {
        &[PeriphWorkload::SensorLog, PeriphWorkload::Telemetry]
    } else {
        &PeriphWorkload::ALL
    };
    let systems: &[SystemUnderTest] = if quick {
        &[
            SystemUnderTest::PlainC,
            SystemUnderTest::Tics,
            SystemUnderTest::Mementos,
            SystemUnderTest::Alpaca,
        ]
    } else {
        &SystemUnderTest::ALL
    };
    let rates: &[f64] = if quick { &[0.0] } else { &[0.0, 0.3] };
    let trials = if quick { 8 } else { 24 };

    let mut sweep = exp.sweep();
    for &rate in rates {
        for &system in systems {
            for &w in workloads {
                sweep = sweep.cell(
                    Cell::new(App::Bc, system)
                        .label(w.name())
                        .param("workload", w.name())
                        .param("rate", rate),
                );
            }
        }
    }

    let outcome = exp.run(sweep, |cell| {
        let workload = PeriphWorkload::from_name(cell.param_str("workload"))
            .ok_or_else(|| "unknown workload".to_string())?;
        let rate = cell
            .param_value("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| "rate param missing".to_string())?;
        let prog = match build_periph_program(workload, cell.system) {
            Ok(p) => p,
            Err(reason) => {
                return Ok(CellOutput {
                    outcome: format!("unsupported: {reason}"),
                    ..CellOutput::default()
                }
                .with("supported", false));
            }
        };
        let golden = periph_golden(&prog, cell.system)?;
        let claims = claims_consistency(cell.system);
        let report = run_periph_cell(
            workload,
            &prog,
            cell.system,
            &golden,
            rate,
            trials,
            cell.seed,
        );
        let mut out = CellOutput {
            outcome: if report.violations > 0 {
                format!("{} violations", report.violations)
            } else {
                "detect-or-recover".to_string()
            },
            cycles: report.total_cycles,
            power_failures: report.failures_injected,
            restores: report.recovered,
            text_bytes: prog.text_bytes(),
            data_bytes: prog.data_bytes(),
            ..CellOutput::default()
        }
        .with("supported", true)
        .with("claims_consistency", claims);
        for (key, value) in report.counters() {
            out = out.with(key, value);
        }
        out = out.with("detect_or_recover_rate", report.detect_or_recover_rate());
        if let Some(d) = &report.first_violation {
            out = out.with("violation_detail", d.as_str());
        }
        if let Some(e) = &report.wire_exhibit {
            out = out.with("wire_exhibit", e.clone());
        }
        Ok(out)
    });

    // ---- table ----
    println!(
        "\n{:<16} {:<11} {:>5} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6} {:>6}",
        "workload",
        "system",
        "rate",
        "trials",
        "ok",
        "rec",
        "det",
        "viol",
        "live",
        "retry",
        "skips",
        "d-or-r"
    );
    let count = |row: &JournalRow, k: &str| row.metric_u64(k).unwrap_or(0);
    let mut matrix = Vec::new();
    let mut control_violations: [(SystemUnderTest, u64); 2] =
        [(SystemUnderTest::PlainC, 0), (SystemUnderTest::Mementos, 0)];
    let mut control_trials = 0u64;
    for row in exp.claim_rows(CLAIMS, &outcome) {
        let workload = row.app.as_str();
        if row.metric("supported").and_then(Json::as_bool) != Some(true) {
            println!("{:<16} {:<11} {}", workload, row.system, row.outcome);
            continue;
        }
        let rate = row.metric_f64("rate").unwrap_or(0.0);
        let violations = count(row, "violations");
        let claims = row.metric("claims_consistency").and_then(Json::as_bool) == Some(true);
        println!(
            "{:<16} {:<11} {:>5.2} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6} {:>6.3}",
            workload,
            row.system,
            rate,
            count(row, "trials"),
            count(row, "clean"),
            count(row, "recovered"),
            count(row, "detected"),
            violations,
            count(row, "livelocks"),
            count(row, "retries"),
            count(row, "txn_skips"),
            row.metric_f64("detect_or_recover_rate").unwrap_or(0.0),
        );
        let claim_broken = claims && violations > 0;
        exp.check(CLAIMS, !claim_broken, || {
            format!(
                "{workload} x {} @ rate {rate}: {violations} violations — {}",
                row.system,
                row.metric("violation_detail")
                    .and_then(Json::as_str)
                    .unwrap_or("no detail"),
            )
        });
        if claim_broken {
            if let Some(exhibit) = row.metric("wire_exhibit") {
                let tag = if rate > 0.0 {
                    format!("_r{:02}", (rate * 100.0).round() as u32)
                } else {
                    String::new()
                };
                write_result(
                    &format!("periph_wire_{workload}_{}{tag}", row.system),
                    exhibit,
                );
            }
        }
        for (control, seen) in &mut control_violations {
            if row.system == control.name() {
                *seen += violations;
                control_trials += count(row, "trials");
            }
        }
        matrix.push(
            Json::obj()
                .field("workload", workload)
                .field("system", row.system.as_str())
                .fields(row.project(&MATRIX))
                .build(),
        );
    }
    for (control, count) in control_violations {
        exp.check("controls bite", count > 0, || {
            format!(
                "un-hardened control {} produced no torn-wire violation in \
                 {control_trials} control trials — the torn-wire model is not biting",
                control.name()
            )
        });
    }
    exp.finish(&Json::Arr(matrix))
}
