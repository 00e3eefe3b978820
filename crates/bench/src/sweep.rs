//! The parallel sweep engine.
//!
//! Every paper artifact is a sweep over (app × system × opt × clock ×
//! supply × scale × seed) cells. This module turns that loop into a
//! declarative grid executed by a work-stealing thread pool:
//!
//! * **declarative grids** — [`Sweep::grid`] takes the axes and appends
//!   their cartesian product; [`Sweep::cell`] appends hand-built cells
//!   for irregular experiments,
//! * **deterministic seeding** — each cell's seed is derived from the
//!   sweep seed and the cell's grid index with a splitmix64 mix, so the
//!   journal is a pure function of (grid, sweep seed) regardless of
//!   thread count or scheduling,
//! * **panic isolation** — each cell runs under
//!   [`std::panic::catch_unwind`]; a VM trap or harness bug is recorded
//!   as a `panicked` row and its siblings keep running,
//! * **the run journal** — every cell becomes one [`JournalRow`] in
//!   `results/<exp>.jsonl` (override with `--journal`), written in cell
//!   order,
//! * **a summary** — cells run / failed / panicked, simulated cycles,
//!   wall-time, and the estimated speedup over a single-threaded run.
//!
//! Thread count comes from `--threads N`, else the machine's available
//! parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tics_apps::build::{build_app, make_runtime, Scale};
use tics_apps::workload::{ar_trace, ghm_trace};
use tics_apps::{ar, ghm, App, SystemUnderTest};
use tics_clock::{CapacitorRtc, PerfectClock, Timekeeper, VolatileClock};
use tics_energy::{
    Capacitor, CapacitorSupply, ContinuousPower, DutyCycleTrace, PeriodicTrace, PowerSupply,
    RfHarvester,
};
use tics_minic::opt::OptLevel;
use tics_minic::Program;
use tics_trace::SpanKind;
use tics_vm::{Executor, Machine, MachineConfig, MachineImage, RunOutcome, VmError};

use crate::journal::{CellStatus, Journal, JournalRow};
use crate::json::Json;

/// splitmix64 — the per-cell seed derivation, re-exported from
/// `tics-mcu` so a sweep seed and a device seed mix the same way.
pub use tics_mcu::splitmix64;

/// Derives the deterministic seed of cell `index` under `sweep_seed`.
#[must_use]
pub fn cell_seed(sweep_seed: u64, index: u64) -> u64 {
    splitmix64(sweep_seed ^ splitmix64(index.wrapping_add(1)))
}

/// Which timekeeper the device carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Ground truth (also a fine stand-in for an ideal RTC).
    Perfect,
    /// The MCU's internal timer: resets at every reboot. What legacy
    /// code gets without TICS.
    Volatile,
    /// An RTC alive through outages up to a capacitor budget (µs).
    CapacitorRtc(u64),
}

impl ClockKind {
    /// Journal label (`perfect`, `volatile`, `rtc:<budget µs>`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ClockKind::Perfect => "perfect".to_string(),
            ClockKind::Volatile => "volatile".to_string(),
            ClockKind::CapacitorRtc(budget) => format!("rtc:{budget}"),
        }
    }

    /// Instantiates the timekeeper.
    #[must_use]
    pub fn build(self) -> Box<dyn Timekeeper> {
        match self {
            ClockKind::Perfect => Box::new(PerfectClock::new()),
            ClockKind::Volatile => Box::new(VolatileClock::new()),
            ClockKind::CapacitorRtc(budget) => Box::new(CapacitorRtc::new(budget)),
        }
    }
}

/// A declarative power-supply specification, instantiated per cell with
/// the cell's derived seed so stochastic supplies stay deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum SupplySpec {
    /// Never fails.
    Continuous,
    /// Fixed on/off pattern (µs).
    Periodic {
        /// On-time per period.
        on_us: u64,
        /// Off-time per period.
        off_us: u64,
    },
    /// Stochastic duty-cycled power (seeded per cell).
    DutyCycle {
        /// Fraction of time powered, `0.0..=1.0`.
        duty: f64,
        /// Nominal period (µs).
        period_us: u64,
        /// Jitter fraction, `0.0..=1.0`.
        jitter: f64,
    },
    /// RF harvester + storage capacitor (the Table 2 supply; seeded per
    /// cell). Field defaults mirror `exp_table2`'s Powercast setup.
    Rf {
        /// Transmitter EIRP (W).
        eirp_w: f64,
        /// Distance (m).
        distance_m: f64,
        /// Fading depth `0.0..=1.0`.
        fading: f64,
    },
}

impl SupplySpec {
    /// The paper's RF testbed supply (3 W EIRP at 2 m, deep fading).
    #[must_use]
    pub fn rf_default() -> SupplySpec {
        SupplySpec::Rf {
            eirp_w: 3.0,
            distance_m: 2.0,
            fading: 0.85,
        }
    }

    /// Journal label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SupplySpec::Continuous => "continuous".to_string(),
            SupplySpec::Periodic { on_us, off_us } => format!("periodic:{on_us}/{off_us}"),
            SupplySpec::DutyCycle {
                duty,
                period_us,
                jitter,
            } => format!("duty:{duty}/{period_us}/{jitter}"),
            SupplySpec::Rf {
                eirp_w,
                distance_m,
                fading,
            } => format!("rf:{eirp_w}/{distance_m}/{fading}"),
        }
    }

    /// Instantiates the supply with the cell's seed.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn PowerSupply> {
        match self {
            SupplySpec::Continuous => Box::new(ContinuousPower::new()),
            SupplySpec::Periodic { on_us, off_us } => Box::new(PeriodicTrace::new(*on_us, *off_us)),
            SupplySpec::DutyCycle {
                duty,
                period_us,
                jitter,
            } => Box::new(DutyCycleTrace::new(*duty, *period_us, *jitter, seed | 1)),
            SupplySpec::Rf {
                eirp_w,
                distance_m,
                fading,
            } => {
                // 10 µF storage (2.4 V on / 1.8 V off), ~3 mW active draw.
                let harvester = RfHarvester::new(*eirp_w, *distance_m, *fading, seed | 1);
                let cap = Capacitor::new(10e-6, 3.3, 2.4, 1.8);
                Box::new(CapacitorSupply::new(harvester, cap, 3e-3))
            }
        }
    }
}

/// One sweep cell: the full coordinates of a run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// App under test.
    pub app: App,
    /// System under test.
    pub system: SystemUnderTest,
    /// Optimization level.
    pub opt: OptLevel,
    /// Timekeeper.
    pub clock: ClockKind,
    /// Power supply spec.
    pub supply: SupplySpec,
    /// Workload scale.
    pub scale: u32,
    /// Total on-time budget (µs).
    pub time_budget_us: u64,
    /// The derived seed (filled in by the engine before the runner).
    pub seed: u64,
    /// Fleet shard index ([`crate::fleet`]): journaled into the row's
    /// `shard` column and matched on `--resume` so an interrupted fleet
    /// sweep never stitches shard summaries into the wrong slot.
    pub shard: Option<u64>,
    /// Declarative per-cell parameters; journaled into `extra` and
    /// readable by custom runners via [`Cell::param`].
    pub params: Vec<(String, Json)>,
    /// Journal label override for the `app` column — used by cells whose
    /// subject is not one of the benchmark [`App`]s (e.g. the fault
    /// corpus programs of `exp_fault`).
    pub label: Option<String>,
}

impl Cell {
    /// A cell with the default clock (perfect), continuous power, and
    /// default scale/budget.
    #[must_use]
    pub fn new(app: App, system: SystemUnderTest) -> Cell {
        Cell {
            app,
            system,
            opt: OptLevel::O2,
            clock: ClockKind::Perfect,
            supply: SupplySpec::Continuous,
            scale: 24,
            time_budget_us: 10_000_000_000,
            seed: 0,
            shard: None,
            params: Vec::new(),
            label: None,
        }
    }

    /// Overrides the journal's `app` column (for non-app cells).
    #[must_use]
    pub fn label(mut self, label: &str) -> Cell {
        self.label = Some(label.to_string());
        self
    }

    /// Sets the optimization level.
    #[must_use]
    pub fn opt(mut self, opt: OptLevel) -> Cell {
        self.opt = opt;
        self
    }

    /// Sets the timekeeper.
    #[must_use]
    pub fn clock(mut self, clock: ClockKind) -> Cell {
        self.clock = clock;
        self
    }

    /// Sets the supply spec.
    #[must_use]
    pub fn supply(mut self, supply: SupplySpec) -> Cell {
        self.supply = supply;
        self
    }

    /// Sets the workload scale.
    #[must_use]
    pub fn scale(mut self, scale: u32) -> Cell {
        self.scale = scale;
        self
    }

    /// Sets the on-time budget (µs).
    #[must_use]
    pub fn budget(mut self, time_budget_us: u64) -> Cell {
        self.time_budget_us = time_budget_us;
        self
    }

    /// Marks the cell as one fleet shard (journaled; resume-matched).
    #[must_use]
    pub fn shard(mut self, shard: u64) -> Cell {
        self.shard = Some(shard);
        self
    }

    /// Attaches a declarative parameter (journaled; visible to custom
    /// runners).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl Into<Json>) -> Cell {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// Reads back a declarative parameter.
    #[must_use]
    pub fn param_value(&self, key: &str) -> Option<&Json> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A parameter as i64 (panics if absent/mistyped — grid-declaration
    /// bugs should fail loudly, and the engine isolates the panic).
    #[must_use]
    pub fn param_i64(&self, key: &str) -> i64 {
        self.param_value(key)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("cell param {key:?} missing or not an integer"))
    }

    /// A parameter as str (panics if absent/mistyped).
    #[must_use]
    pub fn param_str(&self, key: &str) -> &str {
        self.param_value(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("cell param {key:?} missing or not a string"))
    }

    /// The standard scripted sensor trace for this cell's app — what
    /// the default runner feeds the machine.
    #[must_use]
    pub fn sensor_trace(&self) -> std::sync::Arc<[i32]> {
        standard_sensor_trace(self.app, self.scale)
    }

    /// A fresh device for `prog` with this cell's sensor trace, seed
    /// and clock.
    ///
    /// # Errors
    ///
    /// The load error of a program that builds but does not fit.
    pub fn machine(&self, prog: &Program) -> Result<Machine, VmError> {
        Machine::with_clock(
            prog.clone(),
            MachineConfig {
                sensor_trace: self.sensor_trace(),
                seed: self.seed,
                ..MachineConfig::default()
            },
            self.clock.build(),
        )
    }
}

/// The standard scripted sensor trace for `app` at `scale` — shared by
/// [`Cell::sensor_trace`] and the fleet engine, which builds one trace
/// per (program, config) image and shares it across every device.
#[must_use]
pub fn standard_sensor_trace(app: App, scale: u32) -> std::sync::Arc<[i32]> {
    match app {
        App::Ar => ar_trace(scale * 4, ar::WINDOW, 5, 1234).0.into(),
        App::Ghm | App::GhmTinyos => ghm_trace(64, ghm::READINGS, 11).into(),
        _ => Vec::new().into(),
    }
}

/// What a cell runner hands back to the engine.
#[derive(Debug, Clone, Default)]
pub struct CellOutput {
    /// Outcome text (`finished`, `out-of-energy`, ...).
    pub outcome: String,
    /// Exit code if the program finished.
    pub exit_code: Option<i32>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Restores performed.
    pub restores: u64,
    /// Power failures experienced.
    pub power_failures: u64,
    /// Undo-log appends.
    pub undo_appends: u64,
    /// `.text` bytes.
    pub text_bytes: u32,
    /// `.data` bytes.
    pub data_bytes: u32,
    /// Cycles charged to each [`SpanKind`], indexed by
    /// [`SpanKind::index`] (zeros when the runner does not attribute).
    pub spans: [u64; SpanKind::COUNT],
    /// Experiment-specific metrics appended to the journal row.
    pub extra: Vec<(String, Json)>,
}

impl CellOutput {
    /// Attaches a metric.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> CellOutput {
        self.extra.push((key.to_string(), value.into()));
        self
    }
}

/// Sweep-wide execution knobs, usually parsed from the command line by
/// [`crate::experiment::Args::parse`].
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Worker threads (default: available parallelism).
    pub threads: usize,
    /// Journal path override (default `results/<exp>.jsonl`).
    pub journal: Option<PathBuf>,
    /// Per-cell wall-clock watchdog (`--cell-timeout-ms N`): a cell
    /// whose runner exceeds this host-time budget is journaled as
    /// `timeout` and the sweep moves on. The abandoned runner keeps its
    /// thread until its own simulated-cycle budget expires (every
    /// runner bounds simulation time), so the watchdog bounds journal
    /// latency, not process lifetime.
    pub cell_timeout_ms: Option<u64>,
    /// Resume from an existing journal (`--resume`): rows of a previous
    /// run of the *same grid and sweep seed* whose deterministic
    /// coordinates match are reused verbatim instead of re-simulated.
    /// `panicked`/`timeout` rows are always re-run.
    pub resume: bool,
}

impl Default for SweepArgs {
    fn default() -> SweepArgs {
        SweepArgs {
            threads: default_threads(),
            journal: None,
            cell_timeout_ms: None,
            resume: false,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Aggregate counts and timing of one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Experiment name.
    pub exp: String,
    /// Cells declared (= journal rows).
    pub cells: usize,
    /// Cells whose runner returned a result.
    pub ok: usize,
    /// Cells that failed to build / run.
    pub failed: usize,
    /// Cells whose runner panicked.
    pub panicked: usize,
    /// Cells the wall-clock watchdog abandoned.
    pub timed_out: usize,
    /// Cells reused verbatim from a prior journal (`--resume`).
    pub reused: usize,
    /// Total simulated on-time cycles across cells.
    pub total_cycles: u64,
    /// Sweep wall-time (seconds).
    pub wall_s: f64,
    /// Sum of per-cell wall-times (seconds) — what one thread would
    /// have spent.
    pub cell_wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Journal path, if one was written.
    pub journal: Option<PathBuf>,
}

impl SweepSummary {
    /// Estimated speedup over a 1-thread run of the same grid
    /// (Σ per-cell wall-time / sweep wall-time).
    #[must_use]
    pub fn speedup_vs_one_thread(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cell_wall_s / self.wall_s
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut tail = String::new();
        if self.reused > 0 {
            tail.push_str(&format!(", {} reused", self.reused));
        }
        write!(
            f,
            "sweep {}: {} cells ({} ok, {} failed, {} panicked, {} timed out{tail}), \
             {} cycles simulated, {:.2} s wall on {} thread{} \
             ({:.1}x vs 1 thread)",
            self.exp,
            self.cells,
            self.ok,
            self.failed,
            self.panicked,
            self.timed_out,
            self.total_cycles,
            self.wall_s,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.speedup_vs_one_thread(),
        )?;
        if let Some(p) = &self.journal {
            write!(f, ", journal {}", p.display())?;
        }
        Ok(())
    }
}

/// The result of [`Sweep::run`]: all journal rows (in cell order) plus
/// the summary.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One row per declared cell, ordered by cell index.
    pub rows: Vec<JournalRow>,
    /// Aggregate counts and timing.
    pub summary: SweepSummary,
}

/// A declarative sweep: an experiment name, a grid of cells, and the
/// execution knobs.
#[derive(Debug)]
pub struct Sweep {
    exp: String,
    cells: Vec<Cell>,
    sweep_seed: u64,
    args: SweepArgs,
    quiet: bool,
}

impl Sweep {
    /// An empty sweep for experiment `exp` (journal defaults to
    /// `results/<exp>.jsonl`).
    #[must_use]
    pub fn new(exp: &str) -> Sweep {
        Sweep {
            exp: exp.to_string(),
            cells: Vec::new(),
            sweep_seed: 0x71C5,
            args: SweepArgs::default(),
            quiet: false,
        }
    }

    /// Sets the sweep seed every cell seed derives from.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Sweep {
        self.sweep_seed = seed;
        self
    }

    /// Applies parsed CLI knobs.
    #[must_use]
    pub fn args(mut self, args: SweepArgs) -> Sweep {
        self.args = args;
        self
    }

    /// Suppresses the summary print (tests, and the experiment driver,
    /// which prints it at the end of the run).
    #[must_use]
    pub fn quiet(mut self) -> Sweep {
        self.quiet = true;
        self
    }

    /// Appends one cell; returns `self` for chaining.
    #[must_use]
    pub fn cell(mut self, cell: Cell) -> Sweep {
        self.cells.push(cell);
        self
    }

    /// Appends the cartesian product of the given axes, in row-major
    /// order (apps outermost, scales innermost).
    #[must_use]
    pub fn grid(
        mut self,
        apps: &[App],
        systems: &[SystemUnderTest],
        opts: &[OptLevel],
        clocks: &[ClockKind],
        supplies: &[SupplySpec],
        scales: &[u32],
    ) -> Sweep {
        for &app in apps {
            for &system in systems {
                for &opt in opts {
                    for &clock in clocks {
                        for supply in supplies {
                            for &scale in scales {
                                self.cells.push(
                                    Cell::new(app, system)
                                        .opt(opt)
                                        .clock(clock)
                                        .supply(supply.clone())
                                        .scale(scale),
                                );
                            }
                        }
                    }
                }
            }
        }
        self
    }

    /// Number of declared cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell through [`default_runner`].
    #[must_use]
    pub fn run(self) -> SweepOutcome {
        self.run_with(default_runner)
    }

    /// Runs every cell through a custom runner. The runner sees the
    /// cell with its derived seed already filled in; `Err` journals as
    /// `build-error`, panics journal as `panicked`, and sibling cells
    /// always complete.
    pub fn run_with<F>(self, runner: F) -> SweepOutcome
    where
        F: Fn(&Cell) -> Result<CellOutput, String> + Sync,
    {
        let n = self.cells.len();
        let threads = self.args.threads.max(1).min(n.max(1));
        let journal_path = self
            .args
            .journal
            .clone()
            .unwrap_or_else(|| PathBuf::from("results").join(format!("{}.jsonl", self.exp)));
        // --resume: reuse deterministic rows of a prior (interrupted or
        // partial) run of the same grid before the journal is truncated.
        let cached: Vec<Option<JournalRow>> = if self.args.resume {
            resume_cache(&journal_path, &self.exp, self.sweep_seed, &self.cells)
        } else {
            (0..n).map(|_| None).collect()
        };
        let reused = cached.iter().filter(|c| c.is_some()).count();
        let next = AtomicUsize::new(0);
        let rows: Mutex<Vec<(usize, JournalRow)>> = Mutex::new(Vec::with_capacity(n));
        let cell_wall_ns = AtomicU64::new(0);
        let t0 = Instant::now();

        std::thread::scope(|scope| {
            for tid in 0..threads {
                let next = &next;
                let rows = &rows;
                let cells = &self.cells;
                let cached = &cached;
                let runner = &runner;
                let exp = &self.exp;
                let sweep_seed = self.sweep_seed;
                let timeout_ms = self.args.cell_timeout_ms;
                let cell_wall_ns = &cell_wall_ns;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    if let Some(row) = &cached[i] {
                        rows.lock().expect("rows mutex").push((i, row.clone()));
                        continue;
                    }
                    let mut cell = cells[i].clone();
                    cell.seed = cell_seed(sweep_seed, i as u64);
                    let start = Instant::now();
                    // With a watchdog armed, the runner executes on its
                    // own scoped thread and the worker waits with a
                    // deadline. An overrunning cell is journaled as
                    // `timeout` and its siblings proceed immediately;
                    // the abandoned runner finishes on its own (every
                    // runner bounds *simulated* time) and its late
                    // result is dropped with the channel.
                    let outcome = match timeout_ms {
                        None => Some(catch_unwind(AssertUnwindSafe(|| runner(&cell)))),
                        Some(ms) => {
                            let (tx, rx) = std::sync::mpsc::channel();
                            let watched = cell.clone();
                            scope.spawn(move || {
                                let r = catch_unwind(AssertUnwindSafe(|| runner(&watched)));
                                let _ = tx.send(r);
                            });
                            rx.recv_timeout(std::time::Duration::from_millis(ms)).ok()
                        }
                    };
                    let wall = start.elapsed();
                    let mut row = match outcome {
                        None => JournalRow {
                            status: CellStatus::Timeout,
                            outcome: format!(
                                "timeout: cell exceeded the {} ms wall-clock budget",
                                timeout_ms.unwrap_or(0)
                            ),
                            ..JournalRow::default()
                        },
                        Some(Ok(Ok(out))) => JournalRow {
                            status: CellStatus::Ok,
                            outcome: out.outcome,
                            exit_code: out.exit_code,
                            cycles: out.cycles,
                            checkpoints: out.checkpoints,
                            restores: out.restores,
                            power_failures: out.power_failures,
                            undo_appends: out.undo_appends,
                            text_bytes: out.text_bytes,
                            data_bytes: out.data_bytes,
                            spans: out.spans,
                            extra: out.extra,
                            ..JournalRow::default()
                        },
                        Some(Ok(Err(e))) => JournalRow {
                            status: CellStatus::BuildError,
                            outcome: e,
                            ..JournalRow::default()
                        },
                        Some(Err(payload)) => JournalRow {
                            status: CellStatus::Panicked,
                            outcome: format!("panicked: {}", panic_text(payload.as_ref())),
                            ..JournalRow::default()
                        },
                    };
                    row.exp = exp.clone();
                    row.cell = i as u64;
                    row.app = cell
                        .label
                        .clone()
                        .unwrap_or_else(|| cell.app.name().to_string());
                    row.system = cell.system.name().to_string();
                    row.opt = cell.opt.to_string();
                    row.clock = cell.clock.label();
                    row.supply = cell.supply.label();
                    row.scale = cell.scale;
                    row.seed = cell.seed;
                    row.shard = cell.shard;
                    // Declarative cell params lead the extras so they
                    // keep a stable position for journal folding.
                    let mut extra = cell.params.clone();
                    extra.append(&mut row.extra);
                    row.extra = extra;
                    row.wall_ms = wall.as_secs_f64() * 1_000.0;
                    row.thread = tid as u64;
                    cell_wall_ns.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
                    rows.lock().expect("rows mutex").push((i, row));
                });
            }
        });

        let wall_s = t0.elapsed().as_secs_f64();
        let mut indexed = rows.into_inner().expect("rows mutex");
        indexed.sort_by_key(|(i, _)| *i);
        let rows: Vec<JournalRow> = indexed.into_iter().map(|(_, r)| r).collect();

        let journal = write_journal(&journal_path, &rows);

        let summary = SweepSummary {
            exp: self.exp,
            cells: rows.len(),
            ok: rows.iter().filter(|r| r.status == CellStatus::Ok).count(),
            failed: rows
                .iter()
                .filter(|r| r.status == CellStatus::BuildError)
                .count(),
            panicked: rows
                .iter()
                .filter(|r| r.status == CellStatus::Panicked)
                .count(),
            timed_out: rows
                .iter()
                .filter(|r| r.status == CellStatus::Timeout)
                .count(),
            reused,
            total_cycles: rows.iter().map(|r| r.cycles).sum(),
            wall_s,
            cell_wall_s: cell_wall_ns.load(Ordering::Relaxed) as f64 / 1e9,
            threads,
            journal,
        };
        if !self.quiet {
            println!("{summary}");
        }
        SweepOutcome { rows, summary }
    }
}

/// The default cell runner: builds the cell's app for its system and
/// runs it on the cell's supply, clock, sensor trace and budget.
///
/// # Errors
///
/// Infeasible app × system × opt combinations surface as `Err` (the
/// journal's `build-error` rows). A program that builds but does not
/// load, and a VM trap, are `Ok` rows whose outcome reads `error: …`,
/// so the surrounding sweep keeps going.
pub fn default_runner(cell: &Cell) -> Result<CellOutput, String> {
    let prog =
        build_app(cell.app, cell.system, cell.opt, Scale(cell.scale)).map_err(|e| e.to_string())?;
    let text_bytes = prog.text_bytes();
    let data_bytes = prog.data_bytes();
    let mut machine = match cell.machine(&prog) {
        Ok(m) => m,
        Err(e) => {
            return Ok(CellOutput {
                outcome: format!("error: load failed under {}: {e}", cell.system.name()),
                text_bytes,
                data_bytes,
                ..CellOutput::default()
            })
        }
    };
    let mut runtime = make_runtime(cell.system, &prog);
    let outcome = Executor::new().with_time_budget(cell.time_budget_us).run(
        &mut machine,
        runtime.as_mut(),
        cell.supply.build(cell.seed).as_mut(),
    );
    let (outcome, exit_code) = match outcome {
        Ok(RunOutcome::Finished(c)) => ("finished".to_string(), Some(c)),
        Ok(RunOutcome::OutOfEnergy) => ("out-of-energy".to_string(), None),
        Ok(RunOutcome::BudgetExhausted) => ("budget-exhausted".to_string(), None),
        Ok(RunOutcome::Starved { boots }) => (format!("starved after {boots} boots"), None),
        Err(e) => (format!("error: {e}"), None),
    };
    let stats = machine.stats();
    Ok(CellOutput {
        outcome,
        exit_code,
        cycles: machine.cycles(),
        checkpoints: stats.checkpoints,
        restores: stats.restores,
        power_failures: stats.power_failures,
        undo_appends: stats.undo_log_appends,
        text_bytes,
        data_bytes,
        spans: machine.mem.span_cycles_all(),
        extra: Vec::new(),
    })
}

/// Loads reusable rows from a prior journal for `--resume`: a row is
/// reused only if every deterministic coordinate (experiment, cell
/// index, app label, system, opt, clock, supply, scale, derived seed)
/// matches the declared cell — so resuming against a different grid or
/// sweep seed silently degrades to a full run rather than stitching
/// mismatched results. `panicked` and `timeout` rows are never reused:
/// the former may be a transient harness condition, the latter is
/// exactly what a resume is expected to retry. A malformed line (a
/// sweep killed mid-row) ends the reusable prefix with one warning
/// naming it; a missing journal means there is nothing to resume.
fn resume_cache(
    path: &Path,
    exp: &str,
    sweep_seed: u64,
    cells: &[Cell],
) -> Vec<Option<JournalRow>> {
    let mut cache: Vec<Option<JournalRow>> = (0..cells.len()).map(|_| None).collect();
    let rows = match crate::journal::read_prefix(path) {
        Ok((rows, bad)) => {
            if let Some(bad) = bad {
                eprintln!("warning: resume: {bad}; reusing only the rows before it");
            }
            rows
        }
        Err(e) => {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("warning: resume: could not read {}: {e}", path.display());
            }
            return cache;
        }
    };
    let mut reusable = 0usize;
    for row in rows {
        let Ok(i) = usize::try_from(row.cell) else {
            continue;
        };
        let Some(cell) = cells.get(i) else { continue };
        let app = cell
            .label
            .clone()
            .unwrap_or_else(|| cell.app.name().to_string());
        let matches = row.exp == exp
            && row.app == app
            && row.system == cell.system.name()
            && row.opt == cell.opt.to_string()
            && row.clock == cell.clock.label()
            && row.supply == cell.supply.label()
            && row.scale == cell.scale
            && row.seed == cell_seed(sweep_seed, i as u64)
            && row.shard == cell.shard
            && matches!(row.status, CellStatus::Ok | CellStatus::BuildError);
        if matches {
            if cache[i].is_none() {
                reusable += 1;
            }
            cache[i] = Some(row);
        }
    }
    if reusable > 0 {
        eprintln!(
            "resume: reusing {reusable} of {} cells from {}",
            cells.len(),
            path.display()
        );
    }
    cache
}

fn write_journal(path: &PathBuf, rows: &[JournalRow]) -> Option<PathBuf> {
    let write = || -> std::io::Result<PathBuf> {
        let mut j = Journal::create(path)?;
        for row in rows {
            j.append(row)?;
        }
        j.finish()
    };
    match write() {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("warning: could not write journal {}: {e}", path.display());
            None
        }
    }
}

/// The one build-or-reset step of every loop that recycles a machine
/// (`fleet::run_shard` across devices, `fault::ReplayRig` across
/// trials): instantiates a machine from `image` into an empty `slot`,
/// or rewinds the one already there with [`Machine::reset`].
pub(crate) fn recycled_machine<'a>(
    slot: &'a mut Option<Machine>,
    image: &Arc<MachineImage>,
    seed: u64,
    clock: impl FnOnce() -> Box<dyn Timekeeper>,
) -> tics_vm::Result<&'a mut Machine> {
    match slot {
        Some(m) => m.reset(seed)?,
        None => *slot = Some(Machine::from_image(Arc::clone(image), seed, clock())?),
    }
    Ok(slot.as_mut().expect("filled above"))
}

pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed(42, 0);
        let b = cell_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, cell_seed(42, 0));
        assert_ne!(a, cell_seed(43, 0));
    }

    #[test]
    fn default_runner_runs_bc_under_tics_continuously() {
        let r = default_runner(&Cell::new(App::Bc, SystemUnderTest::Tics).scale(10)).unwrap();
        assert_eq!(r.outcome, "finished");
        assert!(r.exit_code.unwrap() > 0);
        assert!(r.cycles > 0);
        assert!(r.text_bytes > 0 && r.data_bytes > 0);
        // Span-total identity: every cycle is attributed to exactly one
        // span, so the per-span totals sum back to the cycle counter.
        assert_eq!(r.spans.iter().sum::<u64>(), r.cycles);
    }

    #[test]
    fn default_runner_propagates_unsupported_combinations() {
        assert!(default_runner(&Cell::new(App::Bc, SystemUnderTest::Chinchilla)).is_err());
    }

    #[test]
    fn grid_is_row_major_cartesian() {
        let s = Sweep::new("t").grid(
            &[App::Ar, App::Bc],
            &[SystemUnderTest::Tics],
            &[OptLevel::O0, OptLevel::O2],
            &[ClockKind::Perfect],
            &[SupplySpec::Continuous],
            &[8, 16],
        );
        assert_eq!(s.len(), 2 * 2 * 2);
        assert_eq!(s.cells[0].app, App::Ar);
        assert_eq!(s.cells[0].scale, 8);
        assert_eq!(s.cells[1].scale, 16);
        assert_eq!(s.cells[4].app, App::Bc);
    }
}
