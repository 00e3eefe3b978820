//! `dispatch` and `checkpoint`: fixed run counts of (program × system)
//! cells on continuous power, each cell with one `MachineImage` and one
//! recycled `Machine`.
//!
//! On continuous power nothing fails, so `dispatch` (plain C, no hooks,
//! no checkpoints) is almost all decoded dispatch plus memory accounting,
//! and `checkpoint` (Ratchet, MementOS, Chinchilla) adds commits and only
//! commits: a run that restores is a failed check.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tics_apps::build::{make_runtime, Scale};
use tics_apps::{build_app, App, SystemUnderTest};
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_bench::sweep::{cell_seed, standard_sensor_trace};
use tics_energy::ContinuousPower;
use tics_minic::opt::OptLevel;
use tics_minic::Program;
use tics_vm::{Executor, Machine, MachineConfig, MachineImage, RunOutcome};

use crate::{record, scaled, span, Bench, Pieces, Probe, Round, Totals};

/// Scale of the Figure 9 apps (O2). At scale 12 an AR or CF run lasts
/// about as long as four machine resets, which would make `dispatch` a
/// reset benchmark; at 48 the reset is a few percent of a run.
const APP_SCALE: u32 = 48;
/// Bounds a run that never returns; every program here finishes far
/// sooner.
const BUDGET_US: u64 = 10_000_000_000;
const GUARD_BOOTS: u64 = 48;
/// A round is timed in about this many blocks of runs.
const PIECES_PER_ROUND: u64 = 60;
/// Machine seeds per `dispatch` program.
const DISPATCH_SEEDS: u64 = 16;

#[derive(Debug, Clone, Copy)]
enum Source {
    App(App),
    Corpus(FaultProgram),
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::App(app) => app.name(),
            Source::Corpus(p) => p.name(),
        }
    }

    fn build(self, system: SystemUnderTest) -> Result<Program, String> {
        match self {
            Source::App(app) => {
                build_app(app, system, OptLevel::O2, Scale(APP_SCALE)).map_err(|e| e.to_string())
            }
            Source::Corpus(p) => build_fault_program(p, system),
        }
    }

    fn config(self) -> MachineConfig {
        match self {
            Source::App(app) => MachineConfig {
                sensor_trace: standard_sensor_trace(app, APP_SCALE),
                ..MachineConfig::default()
            },
            Source::Corpus(_) => MachineConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CellSpec {
    source: Source,
    system: SystemUnderTest,
    /// Runs per round.
    runs: u64,
}

impl CellSpec {
    fn label(&self, index: usize) -> String {
        format!("{}/{}#{index}", self.source.name(), self.system.name())
    }
}

pub(crate) struct Continuous {
    cells: Vec<CellSpec>,
}

impl Continuous {
    /// Plain C: `big-state` and the Figure 9 apps, with run counts that
    /// give each program a similar share of host time. BC and CF draw
    /// their inputs from the machine's seed, so each program runs under
    /// [`DISPATCH_SEEDS`] seeds.
    pub(crate) fn dispatch(size: f64) -> Continuous {
        let mut cells = Vec::new();
        for (source, runs) in [
            (Source::Corpus(FaultProgram::BigState), 150),
            (Source::App(App::Ar), 1600),
            (Source::App(App::Bc), 450),
            (Source::App(App::Cuckoo), 1600),
        ] {
            for _ in 0..DISPATCH_SEEDS {
                cells.push(CellSpec {
                    source,
                    system: SystemUnderTest::PlainC,
                    runs: scaled(runs / DISPATCH_SEEDS, size),
                });
            }
        }
        Continuous { cells }
    }

    /// `big-state` and `ptr-journal` under the three checkpointing
    /// baselines, with run counts that give each cell a similar share of
    /// host time.
    pub(crate) fn checkpoint(size: f64) -> Continuous {
        let mut cells = Vec::new();
        for (source, runs) in [
            (
                Source::Corpus(FaultProgram::BigState),
                [
                    (SystemUnderTest::Ratchet, 26),
                    (SystemUnderTest::Mementos, 5),
                    (SystemUnderTest::Chinchilla, 70),
                ],
            ),
            (
                Source::Corpus(FaultProgram::PtrJournal),
                [
                    (SystemUnderTest::Ratchet, 1100),
                    (SystemUnderTest::Mementos, 5000),
                    (SystemUnderTest::Chinchilla, 5000),
                ],
            ),
        ] {
            for (system, n) in runs {
                cells.push(CellSpec {
                    source,
                    system,
                    runs: scaled(n, size),
                });
            }
        }
        Continuous { cells }
    }
}

/// What a cell's program does on continuous power.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Golden {
    exit_code: i32,
    cycles: u64,
    instructions: u64,
    sends: Vec<i32>,
    checkpoints: u64,
    restores: u64,
}

pub(crate) struct PreparedCell {
    spec: CellSpec,
    prog: Program,
    image: Arc<MachineImage>,
    seed: u64,
    golden: Golden,
}

fn executor() -> Executor {
    Executor::new()
        .with_time_budget(BUDGET_US)
        .with_progress_guard(GUARD_BOOTS)
}

/// One run on a freshly built machine: the reference every recycled run
/// of the round must reproduce.
fn golden_run(
    image: &Arc<MachineImage>,
    prog: &Program,
    system: SystemUnderTest,
    seed: u64,
    probe: Option<&Probe>,
) -> Result<Golden, String> {
    let mut m = span(probe, "vm.machine.new", || {
        Machine::from_image(
            Arc::clone(image),
            seed,
            Box::new(tics_clock::PerfectClock::new()),
        )
    })
    .map_err(|e| e.to_string())?;
    let mut rt = span(probe, "vm.machine.runtime", || make_runtime(system, prog));
    let outcome = span(probe, "vm.exec.run", || {
        executor().run(&mut m, rt.as_mut(), &mut ContinuousPower::new())
    });
    match outcome {
        Ok(RunOutcome::Finished(exit_code)) => Ok(Golden {
            exit_code,
            cycles: m.cycles(),
            instructions: m.stats().instructions,
            sends: m.stats().sends(),
            checkpoints: m.stats().checkpoints,
            restores: m.stats().restores,
        }),
        other => Err(format!("did not finish on continuous power: {other:?}")),
    }
}

impl Bench for Continuous {
    type Prepared = Vec<PreparedCell>;

    /// Builds every cell and runs its golden. Each cell must compute what
    /// plain C computes for the same program and seed (exit code and
    /// sends), pass its own self-check (a non-negative exit code), never
    /// restore, and commit checkpoints exactly when it is not plain C.
    fn setup(
        &self,
        seed: u64,
        probe: Option<&Probe>,
    ) -> Result<(Vec<PreparedCell>, Totals), String> {
        let mut cells = Vec::new();
        let mut totals = Vec::new();
        // One program and image per (program, system), shared by its cells.
        let mut images: Vec<(String, Program, Arc<MachineImage>)> = Vec::new();
        let mut image_of = |source: Source, system: SystemUnderTest| {
            let key = format!("{}/{}", source.name(), system.name());
            if let Some((_, prog, image)) = images.iter().find(|(k, ..)| *k == key) {
                return Ok((prog.clone(), Arc::clone(image)));
            }
            let prog = span(probe, "minic.compile", || source.build(system))
                .map_err(|e| format!("{key}: {e}"))?;
            let image = span(probe, "vm.image.build", || {
                MachineImage::build(prog.clone(), &source.config())
            })
            .map_err(|e| format!("{key}: {e}"))?;
            images.push((key, prog.clone(), Arc::clone(&image)));
            Ok::<_, String>((prog, image))
        };
        for (i, spec) in self.cells.iter().enumerate() {
            let label = spec.label(i);
            let seed = cell_seed(seed, i as u64);
            let (prog, image) = image_of(spec.source, spec.system)?;
            let golden = golden_run(&image, &prog, spec.system, seed, probe)
                .map_err(|e| format!("{label} golden: {e}"))?;
            let plain = if spec.system == SystemUnderTest::PlainC {
                golden.clone()
            } else {
                let (prog, image) = image_of(spec.source, SystemUnderTest::PlainC)?;
                golden_run(&image, &prog, SystemUnderTest::PlainC, seed, probe)
                    .map_err(|e| format!("{label} plain-C golden: {e}"))?
            };
            if golden.exit_code < 0 {
                return Err(format!(
                    "{label}: self-check failed, exit {}",
                    golden.exit_code
                ));
            }
            if (golden.exit_code, &golden.sends) != (plain.exit_code, &plain.sends) {
                return Err(format!(
                    "{label}: exit {} sends {:?}, but plain C computes exit {} sends {:?}",
                    golden.exit_code, golden.sends, plain.exit_code, plain.sends
                ));
            }
            if golden.restores > 0
                || (golden.checkpoints > 0) != (spec.system != SystemUnderTest::PlainC)
            {
                return Err(format!(
                    "{label}: {} checkpoints and {} restores on continuous power",
                    golden.checkpoints, golden.restores
                ));
            }
            totals.push((format!("{label}.golden_cycles"), golden.cycles));
            totals.push((
                format!("{label}.golden_exit"),
                u64::from(golden.exit_code.unsigned_abs()),
            ));
            cells.push(PreparedCell {
                spec: *spec,
                prog,
                image,
                seed,
                golden,
            });
        }
        Ok((cells, totals))
    }

    fn round(
        &self,
        cells: &Vec<PreparedCell>,
        probe: Option<&Probe>,
        _journal: &Path,
    ) -> Result<Round, String> {
        let per_cell = (PIECES_PER_ROUND / cells.len().max(1) as u64).max(1);
        let block = |cell: &PreparedCell| cell.spec.runs.div_ceil(per_cell);
        let pieces = Pieces::new(
            cells
                .iter()
                .map(|c| usize::try_from(c.spec.runs.div_ceil(block(c))).expect("piece count fits"))
                .sum(),
            probe,
        );
        let mut piece = 0;
        let mut round = Round::default();
        for (i, cell) in cells.iter().enumerate() {
            let label = cell.spec.label(i);
            let block = block(cell);
            let golden = &cell.golden;
            let mut rt = span(probe, "vm.machine.runtime", || {
                make_runtime(cell.spec.system, &cell.prog)
            });
            let mut machine: Option<Machine> = None;
            let (mut cycles, mut instructions, mut checkpoints, mut bytes) = (0, 0, 0, 0);
            let mut started = Instant::now();
            for run in 0..cell.spec.runs {
                let m = match machine.as_mut() {
                    None => {
                        machine = Some(
                            span(probe, "vm.machine.new", || {
                                Machine::from_image(
                                    Arc::clone(&cell.image),
                                    cell.seed,
                                    Box::new(tics_clock::PerfectClock::new()),
                                )
                            })
                            .map_err(|e| format!("{label}: {e}"))?,
                        );
                        machine.as_mut().expect("just built")
                    }
                    Some(m) => {
                        span(probe, "vm.machine.reset", || m.reset(cell.seed))
                            .map_err(|e| format!("{label}: {e}"))?;
                        m
                    }
                };
                span(probe, "vm.machine.recycle", || rt.recycle());
                let mut supply = span(probe, "energy.supply", ContinuousPower::new);
                let outcome = span(probe, "vm.exec.run", || {
                    executor().run(m, rt.as_mut(), &mut supply)
                });
                record(probe, m, golden.instructions);
                let stats = m.stats();
                let got = (
                    outcome.as_ref().ok().copied(),
                    m.cycles(),
                    stats.instructions,
                    stats.restores,
                );
                let want = (
                    Some(RunOutcome::Finished(golden.exit_code)),
                    golden.cycles,
                    golden.instructions,
                    0,
                );
                if got != want && round.problems.len() < 8 {
                    round.problems.push(format!(
                        "{label} run {run}: (outcome, cycles, instructions, restores) = {got:?}, \
                         the fresh golden machine gave {want:?}"
                    ));
                }
                cycles += m.cycles();
                instructions += stats.instructions;
                checkpoints += stats.checkpoints;
                bytes += stats.checkpoint_bytes;
                if (run + 1) % block == 0 || run + 1 == cell.spec.runs {
                    pieces.record(piece, started);
                    piece += 1;
                    started = Instant::now();
                }
            }
            round.units += cell.spec.runs;
            round.cycles += cycles;
            for (key, v) in [
                ("cycles", cycles),
                ("instructions", instructions),
                ("checkpoints", checkpoints),
                ("checkpoint_bytes", bytes),
            ] {
                round.totals.push((format!("{label}.{key}"), v));
            }
        }
        let timing = pieces.into_round();
        Ok(Round {
            pieces: timing.pieces,
            calibration_s: timing.calibration_s,
            calibrating_s: timing.calibrating_s,
            ..round
        })
    }
}
