//! `exp_fleet` — fleet-scale streaming Monte Carlo over the capability
//! matrix.
//!
//! Simulates a large population of independent AR devices (default
//! ~100 000, `--devices 1000000` for the million-device run) for every
//! system that can host the app, each device with its own
//! splitmix64-derived supply fate, on stochastic duty-cycled power with
//! a drifting capacitor-backed RTC. Devices are folded into
//! fixed-memory aggregates as they complete — counters, streaming
//! log-bucket histograms for reactive time and runtime overhead, and a
//! reservoir of worst offenders — so memory use is independent of the
//! fleet size.
//!
//! The engine is the machine-recycling path: each shard builds one
//! shared `MachineImage` and recycles a single `Machine` (and runtime)
//! across its whole device range, so the per-device cost is a state
//! reset, not a construction. Shards are sweep cells (`--threads N`
//! parallelism, `--resume` reuse, per-shard journal rows carrying the
//! full aggregate), and device seeds depend only on the fleet seed and
//! the global device index — shard boundaries and thread count never
//! change any device's fate.
//!
//! Flags beyond the standard sweep set:
//!
//! - `--devices N` — total fleet size, split evenly across feasible
//!   systems (default 100 000).
//! - `--check` — compare per-system device and instruction totals
//!   against the committed `BENCH_fleet.json`. Instruction counts are
//!   simulated (host-independent) and engine-invariant, so equality is
//!   exact; a mismatch means device behavior changed.
//! - `--no-write` — run and report without touching the baseline.
//!
//! To refresh the committed baseline (CI checks at 1400 devices):
//! `cargo run --release -p tics-bench --bin exp_fleet -- --devices 1400`
//! and commit the rewritten `BENCH_fleet.json`.

use std::process::ExitCode;

use tics_apps::{build_app, App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::fleet::{run_shard, FleetSpec, ShardStats};
use tics_bench::journal::CellStatus;
use tics_bench::sweep::splitmix64;
use tics_bench::{Cell, CellOutput, ClockKind, Json, SupplySpec};
use tics_minic::opt::OptLevel;
use tics_vm::DispatchEngine;

/// The fleet's device: the paper's activity-recognition app, scaled
/// down so one device is cheap enough to mass-produce.
const FLEET_APP: App = App::Ar;
const FLEET_OPT: OptLevel = OptLevel::O2;
const FLEET_SCALE: u32 = 6;

/// Capacitor-backed RTC with a 60 s retention budget — the realistic
/// timekeeper whose drift the oracle's slack absorbs.
const FLEET_CLOCK: ClockKind = ClockKind::CapacitorRtc(60_000_000);

/// Stochastic duty-cycled power: 35 % uptime over a 20 ms nominal
/// period with 55 % jitter, instantiated per device from its seed.
/// Harsh enough that every system sees mid-run failures, gentle enough
/// that healthy devices finish.
const FLEET_SUPPLY: SupplySpec = SupplySpec::DutyCycle {
    duty: 0.35,
    period_us: 20_000,
    jitter: 0.55,
};

/// Per-device on-time budget (µs) and livelock guard. The budget is
/// ~3000x the continuous-power workload, so it only trips for devices
/// making pathological (but technically forward) progress — and bounds
/// their wall-clock cost, which matters at a million devices.
const BUDGET_US: u64 = 5_000_000;
const GUARD_BOOTS: u64 = 96;

/// Devices per shard (= per journal row / work-stealing unit).
const SHARD_DEVICES: u64 = 250;

/// Root of every per-system fleet seed.
const FLEET_SEED: u64 = 0xF1EE_7000_0000_5EED;

/// Default fleet size.
const DEFAULT_DEVICES: u64 = 100_000;

/// The per-system fleet seed, derived from the system's *canonical*
/// index in [`SystemUnderTest::ALL`] so it never shifts when the
/// feasible subset changes.
fn system_fleet_seed(canonical_index: usize) -> u64 {
    splitmix64(FLEET_SEED ^ splitmix64(canonical_index as u64 + 0x51))
}

/// Formats a percentile's bucket bounds compactly (`lo..hi µs`-style).
fn fmt_bounds(b: Option<(u64, u64)>) -> String {
    match b {
        Some((lo, hi)) if lo == hi => format!("{lo}"),
        Some((lo, hi)) => format!("{lo}..{hi}"),
        None => "-".to_string(),
    }
}

fn percentile_json(h: &tics_bench::StreamingHistogram, p: f64) -> Json {
    match h.percentile(p) {
        Some((lo, hi)) => Json::Arr(vec![Json::from(lo), Json::from(hi)]),
        None => Json::Null,
    }
}

fn main() -> ExitCode {
    let accepted = [&SWEEP[..], &["--devices", "--check", "--no-write"]].concat();
    let mut exp = Experiment::from_env("fleet", &accepted);

    // Probe the capability matrix once: a system joins the fleet iff it
    // can host the app at all (the same feasibility rule every other
    // experiment uses).
    let feasible: Vec<(usize, SystemUnderTest)> = SystemUnderTest::ALL
        .into_iter()
        .enumerate()
        .filter(|(_, system)| {
            build_app(
                FLEET_APP,
                *system,
                FLEET_OPT,
                tics_apps::build::Scale(FLEET_SCALE),
            )
            .is_ok()
        })
        .collect();
    if feasible.is_empty() {
        eprintln!("no system can host {}", FLEET_APP.name());
        return ExitCode::FAILURE;
    }
    let devices = exp.args.devices.unwrap_or(DEFAULT_DEVICES);
    let per_system = (devices / feasible.len() as u64).max(1);

    // One cell per (system, shard). The shard carries its device range
    // in params; everything else is deterministic cell coordinates.
    let mut sweep = exp.sweep();
    for (canonical, system) in &feasible {
        let fleet_seed = system_fleet_seed(*canonical);
        let shards = per_system.div_ceil(SHARD_DEVICES);
        for shard in 0..shards {
            let first = shard * SHARD_DEVICES;
            let count = SHARD_DEVICES.min(per_system - first);
            sweep = sweep.cell(
                Cell::new(FLEET_APP, *system)
                    .opt(FLEET_OPT)
                    .clock(FLEET_CLOCK)
                    .supply(FLEET_SUPPLY.clone())
                    .scale(FLEET_SCALE)
                    .budget(BUDGET_US)
                    .shard(shard)
                    .param("first_device", i64::try_from(first).expect("fits"))
                    .param("devices", i64::try_from(count).expect("fits"))
                    .param("fleet_seed", format!("{fleet_seed:#x}")),
            );
        }
    }

    let total_devices = per_system * feasible.len() as u64;
    println!(
        "fleet: {} devices/system x {} systems = {} devices, {} shards",
        per_system,
        feasible.len(),
        total_devices,
        sweep.len(),
    );

    let outcome = exp.run(sweep, |cell| {
        let fleet_seed =
            u64::from_str_radix(cell.param_str("fleet_seed").trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad fleet_seed param: {e}"))?;
        let spec = FleetSpec {
            app: cell.app,
            system: cell.system,
            opt: cell.opt,
            clock: cell.clock,
            supply: cell.supply.clone(),
            scale: cell.scale,
            time_budget_us: cell.time_budget_us,
            guard_boots: GUARD_BOOTS,
            engine: DispatchEngine::from_env(),
            fleet_seed,
        };
        let first = u64::try_from(cell.param_i64("first_device")).map_err(|e| e.to_string())?;
        let count = u64::try_from(cell.param_i64("devices")).map_err(|e| e.to_string())?;
        let stats = run_shard(&spec, first, count)?;
        Ok(CellOutput {
            outcome: "finished".to_string(),
            cycles: stats.cycles,
            checkpoints: stats.checkpoints,
            power_failures: stats.power_failures,
            extra: stats.to_extra(),
            ..CellOutput::default()
        })
    });

    // Fold the journal rows (fresh and resumed alike) back into
    // per-system fleet aggregates, in shard order.
    let mut fleets: Vec<(SystemUnderTest, ShardStats)> = Vec::new();
    for (_, system) in &feasible {
        let mut rows: Vec<_> = outcome
            .rows
            .iter()
            .filter(|r| r.system == system.name())
            .collect();
        rows.sort_by_key(|r| r.shard);
        let mut total = ShardStats::new(0);
        for row in rows {
            let shard = (row.status == CellStatus::Ok)
                .then(|| ShardStats::from_extra(&row.extra))
                .flatten();
            exp.check("shards", shard.is_some(), || {
                format!(
                    "shard {}/{:?} did not fold: {}",
                    row.system, row.shard, row.outcome
                )
            });
            if let Some(shard) = shard {
                total.merge(&shard);
            }
        }
        fleets.push((*system, total));
    }

    let devices_per_sec = if outcome.summary.wall_s > 0.0 {
        total_devices as f64 / outcome.summary.wall_s
    } else {
        0.0
    };

    println!();
    println!(
        "{:<10} {:>9} {:>7} {:>7} {:>7} {:>6} {:>8} {:>8} {:>14} {:>14} {:>12}",
        "system",
        "devices",
        "fin%",
        "live%",
        "viol%",
        "recov",
        "pwrfail",
        "ckpts",
        "react p50 us",
        "react p99 us",
        "ovhd p50 \u{2030}"
    );
    for (system, f) in &fleets {
        let pct = |n: u64| {
            if f.devices == 0 {
                0.0
            } else {
                100.0 * n as f64 / f.devices as f64
            }
        };
        println!(
            "{:<10} {:>9} {:>6.1}% {:>6.1}% {:>6.1}% {:>6} {:>8} {:>8} {:>14} {:>14} {:>12}",
            system.name(),
            f.devices,
            pct(f.finished),
            pct(f.livelocked),
            pct(f.violating_devices),
            f.recovered_devices,
            f.power_failures,
            f.checkpoints,
            fmt_bounds(f.reactive_us.percentile(50.0)),
            fmt_bounds(f.reactive_us.percentile(99.0)),
            fmt_bounds(f.overhead_permille.percentile(50.0)),
        );
    }
    println!();
    println!(
        "{} devices in {:.1}s wall = {:.0} devices/sec on {} thread(s)",
        total_devices, outcome.summary.wall_s, devices_per_sec, outcome.summary.threads
    );
    let json = fleet_json(&fleets, total_devices, devices_per_sec);
    exp.baseline("BENCH_fleet.json", &json, |baseline| {
        check_against(baseline, &fleets)
    });
    exp.finish(&json)
}

fn fleet_json(
    fleets: &[(SystemUnderTest, ShardStats)],
    total_devices: u64,
    devices_per_sec: f64,
) -> Json {
    Json::obj()
        .field("version", 1i64)
        .field("app", FLEET_APP.name())
        .field("scale", u64::from(FLEET_SCALE))
        .field("clock", FLEET_CLOCK.label())
        .field("supply", FLEET_SUPPLY.label())
        .field("total_devices", total_devices)
        .field("devices_per_sec", devices_per_sec)
        .field(
            "systems",
            Json::Arr(
                fleets
                    .iter()
                    .map(|(system, f)| {
                        let mut obj = Json::obj().field("system", system.name());
                        for (key, value) in f.to_extra() {
                            obj = obj.field(&key, value);
                        }
                        obj.field("reactive_p50_us", percentile_json(&f.reactive_us, 50.0))
                            .field("reactive_p99_us", percentile_json(&f.reactive_us, 99.0))
                            .field(
                                "overhead_p50_permille",
                                percentile_json(&f.overhead_permille, 50.0),
                            )
                            .field(
                                "overhead_p99_permille",
                                percentile_json(&f.overhead_permille, 99.0),
                            )
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

/// Exact-equality gate on the simulated, host-independent per-system
/// totals; returns one line per mismatch. `devices` mismatches are
/// reported as a usage error (the baseline was generated at a different
/// `--devices`), instruction or violation mismatches as real divergence
/// (refresh with `exp_fleet --devices N` if intended).
fn check_against(baseline: &Json, fleets: &[(SystemUnderTest, ShardStats)]) -> Vec<String> {
    let Some(rows) = baseline.get("systems").and_then(Json::as_arr) else {
        return vec!["baseline has no systems array".to_string()];
    };
    let baseline_devices = baseline.get("total_devices").and_then(Json::as_u64);
    let mut regressions = Vec::new();
    for (system, f) in fleets {
        let Some(row) = rows
            .iter()
            .find(|r| r.get("system").and_then(Json::as_str) == Some(system.name()))
        else {
            regressions.push(format!("system {} not in baseline", system.name()));
            continue;
        };
        let field = |k: &str| row.get(k).and_then(Json::as_u64);
        if field("devices") != Some(f.devices) {
            regressions.push(format!(
                "DEVICE-COUNT MISMATCH {}: baseline ran {:?} devices, this run {} — \
                 re-run with `--devices {}` to compare against the committed baseline",
                system.name(),
                field("devices"),
                f.devices,
                baseline_devices.unwrap_or(0),
            ));
            continue;
        }
        for (key, got) in [
            ("instructions", f.instructions),
            ("violations", f.violations),
            ("fleet_power_failures", f.power_failures),
        ] {
            if field(key) != Some(got) {
                regressions.push(format!(
                    "DIVERGENCE {}: {} = {} but baseline has {:?} — per-device behavior \
                     changed",
                    system.name(),
                    key,
                    got,
                    field(key),
                ));
            }
        }
    }
    regressions
}
