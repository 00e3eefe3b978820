//! `exp_bench` — interpreter dispatch microbenchmark and regression
//! guard.
//!
//! Sweeps the seven fault-corpus programs across the legacy-capable
//! systems under continuous and periodic-intermittent supplies, running
//! every cell under **both** dispatch engines (the reference
//! interpreter and the decoded fast-dispatch engine), and records
//! host-side throughput: simulated instructions per second and complete
//! cell-runs per second.
//!
//! Two properties are enforced on every cell, so the benchmark doubles
//! as a differential smoke test (an untimed pass over the torn-wire
//! peripheral workloads rides along, so UART/I2C intrinsics and the
//! transaction journal are also engine-differential):
//!
//! 1. **Equivalence** — both engines must produce the same outcome,
//!    simulated cycle count, instruction count, and trace stream.
//!    Any mismatch exits non-zero.
//! 2. **Simulated totals and speedup** (`--check`) — each cell's
//!    outcome, cycles, instructions, checkpoint bytes and checkpoint
//!    cycles must equal the committed baseline `BENCH_interpreter.json`
//!    exactly: they are simulated, so any drift means behaviour changed
//!    (among other things, the guard that keeps dirty-word incremental
//!    imaging from silently degrading back to full-image commits). The
//!    per-cell speedup ratio `decoded_ips / reference_ips` and the grid
//!    geomean are compared against the baseline with loose bounds.
//!
//! Flags: `--quick` (reduced measurement time for CI), `--check`
//! (compare against the committed baseline), `--no-write` (leave the
//! baseline untouched). The sweep is deliberately single-threaded:
//! wall-clock throughput is the measurement, so cells must not contend
//! for cores.
//!
//! To refresh the committed baseline after interpreter work:
//! `cargo run --release -p tics-bench --bin exp_bench` and commit the
//! rewritten `BENCH_interpreter.json`.

use std::process::ExitCode;
use std::time::Instant;

use tics_apps::SystemUnderTest;
use tics_bench::experiment::Experiment;
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_bench::periph::{build_periph_program, PeriphWorkload};
use tics_bench::Json;
use tics_energy::{ContinuousPower, PeriodicTrace, PowerSupply};
use tics_minic::Program;
use tics_trace::{SpanKind, TraceRecord};
use tics_vm::{DispatchEngine, Executor, Machine, MachineConfig};

/// Systems that run the legacy fault corpus.
const SYSTEMS: [SystemUnderTest; 5] = [
    SystemUnderTest::PlainC,
    SystemUnderTest::Mementos,
    SystemUnderTest::Tics,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ratchet,
];

/// Periodic supply shape for the intermittent half of the grid.
const ON_US: u64 = 50_000;
const OFF_US: u64 = 300;

/// On-time budget: bounds starving cells (the guard below diagnoses
/// them long before this).
const BUDGET_US: u64 = 50_000_000;
const GUARD_BOOTS: u64 = 48;

/// A cell regressing below this fraction of its baseline speedup fails
/// `--check`. Deliberately loose: single cells are noisy under `--quick`
/// (few repetitions), so the per-cell gate only catches catastrophic
/// regressions — the geomean gate below catches broad ones.
const CHECK_TOLERANCE: f64 = 0.5;

/// The grid-wide geomean speedup regressing below this fraction of the
/// baseline's geomean fails `--check`. Averaging over every cell makes
/// this stable even under `--quick` timing noise.
const GEOMEAN_TOLERANCE: f64 = 0.85;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Supply {
    Continuous,
    Periodic,
}

impl Supply {
    fn label(self) -> &'static str {
        match self {
            Supply::Continuous => "continuous",
            Supply::Periodic => "periodic",
        }
    }

    fn build(self) -> Box<dyn PowerSupply> {
        match self {
            Supply::Continuous => Box::new(ContinuousPower::new()),
            Supply::Periodic => Box::new(PeriodicTrace::new(ON_US, OFF_US)),
        }
    }
}

/// What one timed engine measurement produced.
struct EngineRun {
    /// Observables of a single run, for cross-engine equality.
    outcome: String,
    cycles: u64,
    instructions: u64,
    /// Simulated bytes committed by checkpoints over one run.
    checkpoint_bytes: u64,
    /// Simulated cycles spent inside checkpoint spans over one run.
    checkpoint_cycles: u64,
    trace: Vec<TraceRecord>,
    /// Throughput over all repetitions.
    ips: f64,
    runs_per_sec: f64,
}

/// Runs one (program image, supply, engine) cell repeatedly until
/// `min_host_ms` of wall clock has elapsed, and reports throughput.
fn measure(
    prog: &Program,
    system: SystemUnderTest,
    supply: Supply,
    engine: DispatchEngine,
    min_host_ms: u64,
) -> EngineRun {
    let mut first: Option<(String, u64, u64, u64, u64, Vec<TraceRecord>)> = None;
    let mut total_instructions = 0u64;
    let mut runs = 0u32;
    let started = Instant::now();
    loop {
        let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("image loads");
        let mut rt = tics_apps::build::make_runtime(system, prog);
        let mut sup = supply.build();
        let exec = Executor::new()
            .with_engine(engine)
            .with_time_budget(BUDGET_US)
            .with_progress_guard(GUARD_BOOTS);
        let outcome = match exec.run(&mut m, rt.as_mut(), sup.as_mut()) {
            Ok(o) => format!("{o:?}"),
            Err(e) => format!("error: {e}"),
        };
        total_instructions += m.stats().instructions;
        runs += 1;
        if first.is_none() {
            first = Some((
                outcome,
                m.cycles(),
                m.stats().instructions,
                m.stats().checkpoint_bytes,
                m.mem.span_cycles(SpanKind::Checkpoint),
                m.trace().records().to_vec(),
            ));
        }
        if started.elapsed().as_millis() as u64 >= min_host_ms || runs >= 400 {
            break;
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let (outcome, cycles, instructions, checkpoint_bytes, checkpoint_cycles, trace) =
        first.expect("at least one run");
    EngineRun {
        outcome,
        cycles,
        instructions,
        checkpoint_bytes,
        checkpoint_cycles,
        trace,
        ips: total_instructions as f64 / elapsed,
        runs_per_sec: f64::from(runs) / elapsed,
    }
}

struct CellResult {
    program: &'static str,
    system: &'static str,
    supply: &'static str,
    outcome: String,
    cycles: u64,
    instructions: u64,
    /// Simulated checkpoint traffic per run — the quantity the
    /// incremental-imaging work drives down.
    checkpoint_bytes: u64,
    checkpoint_cycles: u64,
    reference_ips: f64,
    decoded_ips: f64,
    reference_runs_per_sec: f64,
    decoded_runs_per_sec: f64,
    speedup: f64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_env("bench_interpreter", &["--quick", "--check", "--no-write"]);
    let quick = exp.args.quick;
    let min_host_ms: u64 = if quick { 40 } else { 120 };

    let mut cells: Vec<CellResult> = Vec::new();
    let sweep_started = Instant::now();

    for program in FaultProgram::ALL {
        for system in SYSTEMS {
            let prog = match build_fault_program(program, system) {
                Ok(p) => p,
                Err(_) => continue, // infeasible combination (e.g. recursion on Chinchilla)
            };
            for supply in [Supply::Continuous, Supply::Periodic] {
                let reference = measure(
                    &prog,
                    system,
                    supply,
                    DispatchEngine::Reference,
                    min_host_ms,
                );
                let decoded = measure(&prog, system, supply, DispatchEngine::Decoded, min_host_ms);

                let cell = format!("{}/{}/{}", program.name(), system.name(), supply.label());
                check_engines(&mut exp, &cell, &reference, &decoded);

                cells.push(CellResult {
                    program: program.name(),
                    system: system.name(),
                    supply: supply.label(),
                    outcome: decoded.outcome.clone(),
                    cycles: decoded.cycles,
                    instructions: decoded.instructions,
                    checkpoint_bytes: decoded.checkpoint_bytes,
                    checkpoint_cycles: decoded.checkpoint_cycles,
                    reference_ips: reference.ips,
                    decoded_ips: decoded.ips,
                    reference_runs_per_sec: reference.runs_per_sec,
                    decoded_runs_per_sec: decoded.runs_per_sec,
                    speedup: decoded.ips / reference.ips.max(1e-9),
                });
            }
        }
    }

    // Differential smoke over the torn-wire peripheral workloads:
    // untimed single runs, deliberately outside the throughput baseline
    // — engine equality must also hold for the UART/I2C intrinsics and
    // the transaction-journal syscalls, whose device-side state (FIFO
    // contents, sensor cursor) is part of the observable trace.
    let mut periph_cells = 0u32;
    for workload in PeriphWorkload::ALL {
        for system in SYSTEMS {
            let Ok(prog) = build_periph_program(workload, system) else {
                continue;
            };
            for supply in [Supply::Continuous, Supply::Periodic] {
                let reference = measure(&prog, system, supply, DispatchEngine::Reference, 0);
                let decoded = measure(&prog, system, supply, DispatchEngine::Decoded, 0);
                periph_cells += 1;
                let cell = format!("{}/{}/{}", workload.name(), system.name(), supply.label());
                check_engines(&mut exp, &cell, &reference, &decoded);
            }
        }
    }
    println!("periph differential smoke: {periph_cells} cells");

    let geomean_all = geomean(cells.iter().map(|c| c.speedup));
    let min_speedup = cells
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    let total_ckpt_bytes: u64 = cells.iter().map(|c| c.checkpoint_bytes).sum();

    println!(
        "{} cells in {:.1}s | speedup geomean {:.2}x, min {:.2}x | ckpt traffic {} B",
        cells.len(),
        sweep_started.elapsed().as_secs_f64(),
        geomean_all,
        min_speedup,
        total_ckpt_bytes,
    );
    for c in &cells {
        println!(
            "  {:>14}/{:<10} {:<10} {:>7.2} Mips -> {:>7.2} Mips  ({:.2}x)  ckpt {:>7} B / {:>8} cy  [{}]",
            c.program,
            c.system,
            c.supply,
            c.reference_ips / 1e6,
            c.decoded_ips / 1e6,
            c.speedup,
            c.checkpoint_bytes,
            c.checkpoint_cycles,
            c.outcome,
        );
    }

    let json = Json::obj()
        .field("version", 1i64)
        .field("quick", quick)
        .field(
            "grid",
            Json::obj()
                .field("programs", FaultProgram::ALL.map(|p| p.name()).to_vec())
                .field("systems", SYSTEMS.map(SystemUnderTest::name).to_vec())
                .field(
                    "supplies",
                    vec![
                        "continuous".to_string(),
                        format!("periodic:{ON_US}/{OFF_US}"),
                    ],
                )
                .build(),
        )
        .field(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .field("program", c.program)
                            .field("system", c.system)
                            .field("supply", c.supply)
                            .field("outcome", c.outcome.as_str())
                            .field("cycles", c.cycles)
                            .field("instructions", c.instructions)
                            .field("checkpoint_bytes", c.checkpoint_bytes)
                            .field("checkpoint_cycles", c.checkpoint_cycles)
                            .field("reference_ips", c.reference_ips)
                            .field("decoded_ips", c.decoded_ips)
                            .field("reference_cells_per_sec", c.reference_runs_per_sec)
                            .field("decoded_cells_per_sec", c.decoded_runs_per_sec)
                            .field("speedup", c.speedup)
                            .build()
                    })
                    .collect(),
            ),
        )
        .field(
            "summary",
            Json::obj()
                .field("cells", cells.len())
                .field("geomean_speedup", geomean_all)
                .field("min_speedup", min_speedup)
                .field("total_checkpoint_bytes", total_ckpt_bytes)
                .build(),
        )
        .build();

    exp.baseline("BENCH_interpreter.json", &json, |baseline| {
        check_against(baseline, &cells)
    });
    // The results copy is uploaded as a CI artifact alongside the others.
    exp.finish(&json)
}

/// Fails the `engine equivalence` gate unless both engines agree on the
/// outcome, cycles, instructions, checkpoint traffic and trace stream of
/// the (deterministic) first run.
fn check_engines(exp: &mut Experiment, cell: &str, reference: &EngineRun, decoded: &EngineRun) {
    let equal = reference.outcome == decoded.outcome
        && reference.cycles == decoded.cycles
        && reference.instructions == decoded.instructions
        && reference.checkpoint_bytes == decoded.checkpoint_bytes
        && reference.trace == decoded.trace;
    exp.check("engine equivalence", equal, || {
        let sig = |r: &EngineRun| {
            let (cycles, instructions, events) = (r.cycles, r.instructions, r.trace.len());
            format!(
                "({}, {cycles} cy, {instructions} in, {events} ev)",
                r.outcome
            )
        };
        format!("{cell}: ref={} dec={}", sig(reference), sig(decoded))
    });
}

/// Compares each cell against the committed baseline and returns one
/// line per regression: any difference in a simulated total, or a
/// speedup under its bound. Cells are matched by (program, system,
/// supply); a cell missing from the baseline is reported but does not
/// fail.
fn check_against(baseline: &Json, cells: &[CellResult]) -> Vec<String> {
    let Some(rows) = baseline.get("cells").and_then(Json::as_arr) else {
        return vec!["baseline has no cells array".to_string()];
    };
    let baseline_row = |c: &CellResult| -> Option<&Json> {
        rows.iter().find(|row| {
            row.get("program").and_then(Json::as_str) == Some(c.program)
                && row.get("system").and_then(Json::as_str) == Some(c.system)
                && row.get("supply").and_then(Json::as_str) == Some(c.supply)
        })
    };
    let mut regressions = Vec::new();
    for c in cells {
        let Some(row) = baseline_row(c) else {
            println!(
                "note: cell {}/{}/{} not in baseline",
                c.program, c.system, c.supply
            );
            continue;
        };
        let cell = format!("{}/{}/{}", c.program, c.system, c.supply);
        let base_outcome = row.get("outcome").and_then(Json::as_str);
        if base_outcome != Some(c.outcome.as_str()) {
            regressions.push(format!(
                "{cell}: outcome {} but baseline has {base_outcome:?}",
                c.outcome
            ));
        }
        for (key, got) in [
            ("cycles", c.cycles),
            ("instructions", c.instructions),
            ("checkpoint_bytes", c.checkpoint_bytes),
            ("checkpoint_cycles", c.checkpoint_cycles),
        ] {
            let base = row.get(key).and_then(Json::as_u64);
            if base != Some(got) {
                regressions.push(format!("{cell}: {key} = {got} but baseline has {base:?}"));
            }
        }
        if let Some(base) = row.get("speedup").and_then(Json::as_f64) {
            if c.speedup < base * CHECK_TOLERANCE {
                regressions.push(format!(
                    "{cell}: speedup {:.2}x < {:.0}% of baseline {base:.2}x",
                    c.speedup,
                    CHECK_TOLERANCE * 100.0,
                ));
            }
        }
    }
    let base_geomean = baseline
        .get("summary")
        .and_then(|s| s.get("geomean_speedup"))
        .and_then(Json::as_f64);
    match base_geomean {
        Some(base) => {
            let measured = geomean(cells.iter().map(|c| c.speedup));
            if measured < base * GEOMEAN_TOLERANCE {
                regressions.push(format!(
                    "geomean: speedup {measured:.2}x < {:.0}% of baseline {base:.2}x",
                    GEOMEAN_TOLERANCE * 100.0,
                ));
            }
        }
        None => regressions.push("baseline has no summary.geomean_speedup".to_string()),
    }
    regressions
}
