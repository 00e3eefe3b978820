//! `fleet`: the `exp_fleet` configuration driven through
//! `Sweep::run_with` + `run_shard`.
//!
//! Each device runs only 3–5k instructions, so the per-device fixed costs
//! (machine reset and runtime recycle, supply build, the violation
//! oracle, the fold, the journal) are exposed, and TICS's per-instruction
//! hook carries real weight.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tics_apps::build::{make_runtime, Scale};
use tics_apps::{build_app, App, SystemUnderTest};
use tics_bench::fleet::{run_shard, Exemplar, FleetSpec, ShardStats};
use tics_bench::journal::CellStatus;
use tics_bench::sweep::{splitmix64, standard_sensor_trace};
use tics_bench::{count_violations, Cell, CellOutput, ClockKind, SupplySpec, Sweep};
use tics_energy::ContinuousPower;
use tics_minic::opt::OptLevel;
use tics_trace::SpanKind;
use tics_vm::{
    DispatchEngine, ExecStats, Executor, Machine, MachineConfig, MachineImage, RunOutcome, VmError,
};

use crate::{record, scaled, span, sweep_args, Bench, Pieces, Probe, Round, Totals};

// The device and its environment, as `exp_fleet` defines them.
const APP: App = App::Ar;
const OPT: OptLevel = OptLevel::O2;
const SCALE: u32 = 6;
const CLOCK: ClockKind = ClockKind::CapacitorRtc(60_000_000);
const SUPPLY: SupplySpec = SupplySpec::DutyCycle {
    duty: 0.35,
    period_us: 20_000,
    jitter: 0.55,
};
const BUDGET_US: u64 = 5_000_000;
const GUARD_BOOTS: u64 = 96;
const SHARD_DEVICES: u64 = 250;

/// Devices per system in one full-size round (7 systems).
const DEVICES_PER_SYSTEM: u64 = 1_750;

pub(crate) struct Fleet {
    devices_per_system: u64,
}

impl Fleet {
    pub(crate) fn sized(size: f64) -> Fleet {
        Fleet {
            devices_per_system: scaled(DEVICES_PER_SYSTEM, size),
        }
    }
}

/// One system that can host the app.
pub(crate) struct FleetSystem {
    spec: FleetSpec,
    /// Instructions one device executes on continuous power.
    useful_instructions: u64,
}

fn image_config() -> MachineConfig {
    MachineConfig {
        sensor_trace: standard_sensor_trace(APP, SCALE),
        ..MachineConfig::default()
    }
}

fn executor(spec: &FleetSpec) -> Executor {
    Executor::new()
        .with_engine(spec.engine)
        .with_time_budget(spec.time_budget_us)
        .with_progress_guard(spec.guard_boots)
}

impl Bench for Fleet {
    type Prepared = Vec<FleetSystem>;

    /// Probes which systems can host the app, as `exp_fleet` does, and
    /// runs one golden device per system on continuous power. Every
    /// system must finish with the same exit code.
    fn setup(
        &self,
        seed: u64,
        probe: Option<&Probe>,
    ) -> Result<(Vec<FleetSystem>, Totals), String> {
        let mut systems = Vec::new();
        let mut totals = Vec::new();
        let mut exit_code = None;
        for (canonical, system) in SystemUnderTest::ALL.into_iter().enumerate() {
            let Ok(prog) = span(probe, "minic.compile", || {
                build_app(APP, system, OPT, Scale(SCALE))
            }) else {
                continue;
            };
            let spec = FleetSpec {
                app: APP,
                system,
                opt: OPT,
                clock: CLOCK,
                supply: SUPPLY,
                scale: SCALE,
                time_budget_us: BUDGET_US,
                guard_boots: GUARD_BOOTS,
                engine: DispatchEngine::from_env(),
                fleet_seed: splitmix64(seed ^ splitmix64(canonical as u64 + 0x51)),
            };
            let image = span(probe, "vm.image.build", || {
                MachineImage::build(prog.clone(), &image_config())
            })
            .map_err(|e| e.to_string())?;
            let mut m = span(probe, "vm.machine.new", || {
                Machine::from_image(image, spec.device_seed(0), CLOCK.build())
            })
            .map_err(|e| e.to_string())?;
            let mut rt = span(probe, "vm.machine.runtime", || make_runtime(system, &prog));
            let outcome = span(probe, "vm.exec.run", || {
                executor(&spec).run(&mut m, rt.as_mut(), &mut ContinuousPower::new())
            });
            let Ok(RunOutcome::Finished(code)) = outcome else {
                return Err(format!(
                    "the golden {} device did not finish on continuous power: {outcome:?}",
                    system.name()
                ));
            };
            if *exit_code.get_or_insert(code) != code {
                return Err(format!(
                    "the golden {} device exited {code}, other systems {exit_code:?}",
                    system.name()
                ));
            }
            totals.push((format!("{}.golden_cycles", system.name()), m.cycles()));
            systems.push(FleetSystem {
                spec,
                useful_instructions: m.stats().instructions,
            });
        }
        Ok((systems, totals))
    }

    fn round(
        &self,
        systems: &Vec<FleetSystem>,
        probe: Option<&Probe>,
        journal: &Path,
    ) -> Result<Round, String> {
        let mut sweep = Sweep::new("fleet").args(sweep_args(journal)).quiet();
        let mut shards = Vec::new();
        for s in systems {
            for shard in 0..self.devices_per_system.div_ceil(SHARD_DEVICES) {
                let first = shard * SHARD_DEVICES;
                let count = SHARD_DEVICES.min(self.devices_per_system - first);
                sweep = sweep.cell(
                    Cell::new(APP, s.spec.system)
                        .opt(OPT)
                        .clock(CLOCK)
                        .supply(SUPPLY)
                        .scale(SCALE)
                        .budget(BUDGET_US)
                        .shard(shard)
                        .param("cell", shards.len())
                        .param("first_device", first)
                        .param("shard_devices", count),
                );
                shards.push((s, first, count));
            }
        }
        let pieces = Pieces::new(sweep.len(), probe);
        let outcome = span(probe, "sweep.run", || {
            sweep.run_with(|cell| {
                let started = Instant::now();
                let index = usize::try_from(cell.param_i64("cell")).map_err(|e| e.to_string())?;
                let (s, first, count) = shards[index];
                let stats = match probe {
                    None => run_shard(&s.spec, first, count)?,
                    Some(p) => p.tracer.span("perf.cell", || {
                        traced_shard(&s.spec, first, count, p, s.useful_instructions)
                    })?,
                };
                let out = CellOutput {
                    outcome: "finished".to_string(),
                    cycles: stats.cycles,
                    checkpoints: stats.checkpoints,
                    power_failures: stats.power_failures,
                    extra: stats.to_extra(),
                    ..CellOutput::default()
                };
                pieces.record(index, started);
                Ok(out)
            })
        });

        // Fold the journal rows back into per-system aggregates, in shard
        // order, as `exp_fleet` does.
        let mut round = pieces.into_round();
        for s in systems {
            let name = s.spec.system.name();
            let mut fleet = ShardStats::new(0);
            for row in outcome.rows.iter().filter(|r| r.system == name) {
                let devices = row.metric_u64("shard_devices").unwrap_or(0);
                round.units += devices;
                if row.status != CellStatus::Ok {
                    round.failed += devices;
                    continue;
                }
                let shard = ShardStats::from_extra(&row.extra)
                    .ok_or_else(|| format!("malformed {name} shard row in the journal"))?;
                fleet.merge(&shard);
            }
            round.cycles += fleet.cycles;
            if s.spec.system == SystemUnderTest::Tics && fleet.violating_devices > 0 {
                round.problems.push(format!(
                    "TICS: {} of {} devices violated time consistency",
                    fleet.violating_devices, fleet.devices
                ));
            }
            round.totals.extend(fleet_totals(name, &fleet));
        }
        Ok(round)
    }
}

fn fleet_totals(name: &str, f: &ShardStats) -> Totals {
    // Histograms and the offender reservoir enter through a digest of
    // their full state.
    let mut digest = DefaultHasher::new();
    format!(
        "{:?}{:?}{:?}",
        f.reactive_us, f.overhead_permille, f.offenders
    )
    .hash(&mut digest);
    [
        ("devices", f.devices),
        ("finished", f.finished),
        ("out_of_energy", f.out_of_energy),
        ("budget_exhausted", f.budget_exhausted),
        ("livelocked", f.livelocked),
        ("errored", f.errored),
        ("violating_devices", f.violating_devices),
        ("violations", f.violations),
        ("recovered_devices", f.recovered_devices),
        ("power_failures", f.power_failures),
        ("checkpoints", f.checkpoints),
        ("instructions", f.instructions),
        ("cycles", f.cycles),
        ("distributions", digest.finish()),
    ]
    .into_iter()
    .map(|(key, v)| (format!("{name}.{key}"), v))
    .collect()
}

/// `run_shard` decomposed into its layer calls, each spanned.
fn traced_shard(
    spec: &FleetSpec,
    first: u64,
    count: u64,
    probe: &Probe,
    useful_instructions: u64,
) -> Result<ShardStats, String> {
    let probe = Some(probe);
    let prog = span(probe, "minic.compile", || {
        build_app(spec.app, spec.system, spec.opt, Scale(spec.scale))
    })
    .map_err(|e| e.to_string())?;
    let image = span(probe, "vm.image.build", || {
        MachineImage::build(prog.clone(), &image_config())
    })
    .map_err(|e| e.to_string())?;
    let mut runtime = span(probe, "vm.machine.runtime", || {
        make_runtime(spec.system, &prog)
    });
    let atomic_timestamps = spec.system == SystemUnderTest::Tics;

    let mut stats = ShardStats::new(spec.device_seed(first));
    let mut machine: Option<Machine> = None;
    for d in first..first + count {
        let seed = spec.device_seed(d);
        let m = match machine.as_mut() {
            None => {
                machine = Some(
                    span(probe, "vm.machine.new", || {
                        Machine::from_image(Arc::clone(&image), seed, spec.clock.build())
                    })
                    .map_err(|e| e.to_string())?,
                );
                machine.as_mut().expect("just built")
            }
            Some(m) => {
                span(probe, "vm.machine.reset", || m.reset(seed)).map_err(|e| e.to_string())?;
                m
            }
        };
        span(probe, "vm.machine.recycle", || runtime.recycle());
        let mut supply = span(probe, "energy.supply", || spec.supply.build(seed));
        let outcome = span(probe, "vm.exec.run", || {
            executor(spec).run(m, runtime.as_mut(), supply.as_mut())
        });
        record(probe, m, useful_instructions);
        fold_device(&mut stats, d, seed, m, &outcome, atomic_timestamps, probe);
    }
    Ok(stats)
}

/// The fleet engine's per-device fold, through `ShardStats`' public
/// fields, with the violation oracle spanned.
fn fold_device(
    stats: &mut ShardStats,
    device: u64,
    seed: u64,
    machine: &Machine,
    outcome: &Result<RunOutcome, VmError>,
    atomic_timestamps: bool,
    probe: Option<&Probe>,
) {
    stats.devices += 1;
    let label = match outcome {
        Ok(RunOutcome::Finished(_)) => {
            stats.finished += 1;
            "finished"
        }
        Ok(RunOutcome::OutOfEnergy) => {
            stats.out_of_energy += 1;
            "out-of-energy"
        }
        Ok(RunOutcome::BudgetExhausted) => {
            stats.budget_exhausted += 1;
            "budget-exhausted"
        }
        Ok(RunOutcome::Starved { .. }) => {
            stats.livelocked += 1;
            "livelocked"
        }
        Err(_) => {
            stats.errored += 1;
            "error"
        }
    };
    let exec = machine.stats();
    stats.power_failures += exec.power_failures;
    stats.checkpoints += exec.checkpoints;
    stats.instructions += exec.instructions;
    stats.cycles += machine.cycles();
    if exec.recoveries > 0 {
        stats.recovered_devices += 1;
    }
    let worst_reactive = fold_reactive(stats, exec);

    let cycles = machine.cycles();
    let spans = machine.mem.span_cycles_all();
    let overhead: u64 = SpanKind::ALL
        .iter()
        .filter(|k| k.is_runtime())
        .map(|k| spans[k.index()])
        .sum();
    if let Some(permille) = (overhead * 1000).checked_div(cycles) {
        stats.overhead_permille.record(permille);
    }

    let v = span(probe, "oracle.count_violations", || {
        count_violations(machine.trace().records(), atomic_timestamps)
    });
    stats.violations += v.total();
    if v.total() > 0 {
        stats.violating_devices += 1;
    }
    if v.total() > 0 || matches!(outcome, Ok(RunOutcome::Starved { .. })) {
        stats.offenders.offer(Exemplar {
            device,
            seed,
            violations: v.total(),
            worst_reactive_us: worst_reactive,
            outcome: label.to_string(),
        });
    }
}

/// Records every send's reactive time (send minus the latest preceding
/// sample, alerts excluded) and returns the device's worst one.
fn fold_reactive(stats: &mut ShardStats, exec: &ExecStats) -> u64 {
    let samples = &exec.samples_timed;
    let mut si = 0usize;
    let mut worst = 0u64;
    for &(value, at_us) in &exec.sends_timed {
        if value < 0 {
            continue;
        }
        while si < samples.len() && samples[si] <= at_us {
            si += 1;
        }
        if si > 0 {
            let reactive = at_us - samples[si - 1];
            stats.reactive_us.record(reactive);
            worst = worst.max(reactive);
        }
    }
    worst
}
