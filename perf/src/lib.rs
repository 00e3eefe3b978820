//! # tics-perf — the repository benchmark
//!
//! Measures the simulator end to end and by layer on four workloads, each
//! chosen to stress a different layer (see `README.md` for the reasons):
//!
//! | workload | one unit | drives |
//! |---|---|---|
//! | `fleet` | a device | `Sweep::run_with` + `fleet::run_shard` |
//! | `dispatch` | a program run | plain-C runs on continuous power |
//! | `checkpoint` | a program run | checkpointing runtimes on continuous power |
//! | `fault` | a trial | `run_fault_cell` / `run_chaos_cell` / `run_periph_cell` |
//!
//! A run sets the workload up (compile, image build, golden runs), then
//! repeats *rounds* — one pass over the workload's fixed input, generated
//! from the seed — until the requested host seconds have elapsed, timing
//! one more set-up after each. Every round must reproduce the first
//! round's simulated totals exactly.
//!
//! The untraced pass reports the end-to-end metrics. Each round is timed
//! in pieces (sweep cells or blocks of runs); a piece counts at its
//! fastest over the rounds, and host times are scaled by the calibration
//! kernel's fastest time, because a shared host slows everything down in
//! bursts and for minutes at a time. The traced pass interleaves untraced
//! rounds with rounds that decompose the same work into calls to each
//! layer's public functions, records a span around every call (see
//! [`tracer`]), checks that the traced rounds reproduce the untraced
//! totals, and reports the per-layer metrics. Nothing outside this package
//! is instrumented.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod calibration;
mod continuous;
mod fault;
mod fleet;
mod layers;
pub mod tracer;

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use tics_bench::{Json, SweepArgs};
use tics_vm::Machine;

use crate::layers::SimStats;
use crate::tracer::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many short devices under stochastic power: per-device fixed costs.
    Fleet,
    /// Plain C on continuous power: decoded dispatch and memory accounting.
    Dispatch,
    /// Checkpointing runtimes on continuous power: the commit side.
    Checkpoint,
    /// Fault, chaos and torn-wire trials: the restore side and the oracles.
    Fault,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::Dispatch,
        Workload::Checkpoint,
        Workload::Fault,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Dispatch => "dispatch",
            Workload::Checkpoint => "checkpoint",
            Workload::Fault => "fault",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Host seconds of rounds to measure (at least one round always runs).
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Round size as a fraction of the benchmark's fixed input; the
    /// integration tests run small rounds.
    pub size: f64,
    /// Directory for journals, traces and layer tables.
    pub out_dir: PathBuf,
}

impl Options {
    /// The benchmark's settings: a 10 s untraced window at full size,
    /// writing under `target/perf/`.
    #[must_use]
    pub fn new(seed: u64) -> Options {
        Options {
            seed,
            seconds: 10.0,
            traced: false,
            size: 1.0,
            out_dir: PathBuf::from("target/perf"),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Named simulated totals of one round. Every round, and the traced and
/// untraced passes, must agree on them exactly.
pub type Totals = Vec<(String, u64)>;

/// The outcome of running one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which workload ran.
    pub workload: Workload,
    /// Units (devices, runs or trials) attempted across all rounds.
    pub attempted: u64,
    /// Units in cells that failed, panicked or timed out.
    pub failed: u64,
    /// Failed output checks; empty when every output was correct.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Simulated totals of one round.
    pub totals: Totals,
    /// Fastest [`calibration::kernel`] time of the untraced pass (s),
    /// which the host-time metrics are scaled by; `None` for the traced
    /// pass.
    pub calibration_s: Option<f64>,
}

impl Report {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// A metric's value by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.field(
                m.name,
                Json::obj()
                    .field("value", m.value)
                    .field("unit", m.unit)
                    .build(),
            );
        }
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics.build())
            .build()
            .to_compact()
    }
}

/// Runs `workload` as `opts` describe.
///
/// # Errors
///
/// Returns a description when the output directory cannot be created,
/// a program fails to build, a golden run misbehaves, or a metric cannot
/// be measured. Failed output checks of the rounds are not errors: they
/// land in [`Report::problems`].
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    match workload {
        Workload::Fleet => measure(workload, &fleet::Fleet::sized(opts.size), opts),
        Workload::Dispatch => measure(workload, &continuous::Continuous::dispatch(opts.size), opts),
        Workload::Checkpoint => measure(
            workload,
            &continuous::Continuous::checkpoint(opts.size),
            opts,
        ),
        Workload::Fault => measure(workload, &fault::Fault::sized(opts.size), opts),
    }
}

/// One workload's set-up and rounds.
trait Bench {
    /// What set-up hands to every round.
    type Prepared: Sync;

    /// Compiles, builds images and runs the goldens. The totals summarise
    /// the golden runs, so repeated and traced set-ups can be checked
    /// against the first.
    fn setup(&self, seed: u64, probe: Option<&Probe>) -> Result<(Self::Prepared, Totals), String>;

    /// One pass over the fixed input. With a probe, the pass decomposes
    /// its work into spanned layer calls and records simulated stats.
    fn round(
        &self,
        prepared: &Self::Prepared,
        probe: Option<&Probe>,
        journal: &Path,
    ) -> Result<Round, String>;
}

/// What one round produced.
#[derive(Debug, Default)]
struct Round {
    units: u64,
    failed: u64,
    cycles: u64,
    totals: Totals,
    problems: Vec<String>,
    /// Host seconds of the round's pieces (sweep cells, or blocks of
    /// runs), in the same order every round.
    pieces: Vec<f64>,
    /// Fastest calibration kernel run of the round (s); infinite when
    /// traced.
    calibration_s: f64,
    /// Host seconds the round spent in the calibration kernel.
    calibrating_s: f64,
}

/// The traced pass's recorders: host spans and simulated stats.
struct Probe {
    tracer: Tracer,
    sim: Mutex<SimStats>,
}

impl Probe {
    /// Adds one finished machine run to the simulated stats.
    /// `useful_instructions` is what the run's program executes on
    /// continuous power.
    fn record(&self, m: &Machine, useful_instructions: u64) {
        self.sim
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add(m, useful_instructions);
    }
}

/// Runs `f` inside span `name` when probing, or plainly when not.
fn span<T>(probe: Option<&Probe>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(p) => p.tracer.span(name, f),
        None => f(),
    }
}

fn record(probe: Option<&Probe>, m: &Machine, useful_instructions: u64) {
    if let Some(p) = probe {
        p.record(m, useful_instructions);
    }
}

/// `n` scaled by `size`, at least 1.
fn scaled(n: u64, size: f64) -> u64 {
    ((n as f64 * size).round() as u64).max(1)
}

/// Sweep settings every workload uses: one worker thread and an explicit
/// journal path, so nothing is written under `results/`.
fn sweep_args(journal: &Path) -> SweepArgs {
    SweepArgs {
        threads: 1,
        journal: Some(journal.to_path_buf()),
        ..SweepArgs::default()
    }
}

/// A round's host timing: each piece's seconds, and the fastest
/// calibration kernel run, timed on the working thread after every piece
/// of an untraced round.
struct Pieces {
    times: Mutex<Vec<f64>>,
    /// Fastest kernel run and total kernel time so far (s).
    calibration_s: Mutex<(f64, f64)>,
    calibrate: bool,
}

impl Pieces {
    fn new(count: usize, probe: Option<&Probe>) -> Pieces {
        Pieces {
            times: Mutex::new(vec![0.0; count]),
            calibration_s: Mutex::new((f64::INFINITY, 0.0)),
            calibrate: probe.is_none(),
        }
    }

    /// Stores the host seconds since `started` as piece `index`, then
    /// times the calibration kernel once.
    fn record(&self, index: usize, started: Instant) {
        let secs = started.elapsed().as_secs_f64();
        if let Some(slot) = self
            .times
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(index)
        {
            *slot = secs;
        }
        if self.calibrate {
            let kernel_s = timed(calibration::kernel).1;
            let mut c = self
                .calibration_s
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *c = (c.0.min(kernel_s), c.1 + kernel_s);
        }
    }

    /// A round with these timings.
    fn into_round(self) -> Round {
        let (calibration_s, calibrating_s) = self
            .calibration_s
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Round {
            pieces: self
                .times
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            calibration_s,
            calibrating_s,
            ..Round::default()
        }
    }
}

/// Names the first differing entry of two totals, if any.
fn totals_diff(a: &Totals, b: &Totals) -> Option<String> {
    if a == b {
        return None;
    }
    if a.len() != b.len() {
        return Some(format!("{} totals vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|((ka, va), (kb, vb))| format!("{ka} = {va} vs {kb} = {vb}"))
}

/// The smallest of `values`: the least disturbed of several timings of
/// the same work, since load from outside the process only adds time.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The rounds of one pass: the first round's output and every piece's
/// host time in every round.
#[derive(Default)]
struct Window {
    first: Option<Round>,
    rounds: u64,
    /// Host seconds of piece `i` in each round.
    pieces: Vec<Vec<f64>>,
    /// Host seconds of each round outside its pieces.
    rest: Vec<f64>,
    /// Fastest calibration kernel run over the rounds (s).
    calibration_s: Option<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Window {
    fn add(&mut self, round: Round, secs: f64) {
        self.rounds += 1;
        self.calibration_s = Some(
            self.calibration_s
                .map_or(round.calibration_s, |c| c.min(round.calibration_s)),
        );
        self.attempted += round.units;
        self.failed += round.failed;
        if self.pieces.is_empty() {
            self.pieces = vec![Vec::new(); round.pieces.len()];
        }
        if self.pieces.len() == round.pieces.len() {
            for (samples, &t) in self.pieces.iter_mut().zip(&round.pieces) {
                samples.push(t);
            }
            self.rest
                .push((secs - round.pieces.iter().sum::<f64>() - round.calibrating_s).max(0.0));
        } else {
            self.problems.push(format!(
                "round {} has {} timed pieces, round 1 had {}",
                self.rounds,
                round.pieces.len(),
                self.pieces.len()
            ));
        }
        match &self.first {
            None => {
                self.problems.extend(round.problems.iter().cloned());
                self.first = Some(round);
            }
            Some(first) => {
                if let Some(diff) = totals_diff(&first.totals, &round.totals) {
                    self.problems.push(format!(
                        "round {} simulated differently from round 1: {diff}",
                        self.rounds
                    ));
                }
            }
        }
    }

    /// Host seconds of one round: every piece at its fastest over the
    /// rounds, plus the fastest remainder. Contention from outside the
    /// process only ever adds time, and on a shared host it comes in
    /// bursts that slow a few pieces of a round, so each piece's minimum
    /// is its least disturbed measurement.
    fn round_secs(&self) -> f64 {
        self.pieces.iter().map(|v| fastest(v)).sum::<f64>() + fastest(&self.rest)
    }

    fn first(&self) -> &Round {
        self.first
            .as_ref()
            .expect("a window holds at least one round")
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn measure<B: Bench + Sync>(
    workload: Workload,
    bench: &B,
    opts: &Options,
) -> Result<Report, String> {
    let journal = opts.out_dir.join(format!("{}.jsonl", workload.name()));
    if opts.traced {
        return measure_traced(workload, bench, opts, &journal);
    }
    // The first set-up is cold and untimed; one more, timed, follows
    // every round and must reproduce it. Like a piece of a round, the
    // set-up counts at its fastest: on a shared host the set-ups of one
    // run fall into a fast and a slow mode, and which mode holds most of
    // them changes from run to run.
    let (prepared, setup_totals) = bench.setup(opts.seed, None)?;
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let mut window = Window::default();
    loop {
        let (round, secs) = timed(|| bench.round(&prepared, None, &journal));
        window.add(round?, secs);
        let (setup, secs) = timed(|| bench.setup(opts.seed, None));
        if let Some(diff) = totals_diff(&setup_totals, &setup?.1) {
            window.problems.push(format!("set-ups differ: {diff}"));
        }
        setup_s.push(secs);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // Host seconds at the reference host's speed.
    let calibration_s = window.calibration_s.unwrap_or(calibration::REFERENCE_S);
    let scale = calibration::REFERENCE_S / calibration_s;
    let first = window.first();
    let metrics = vec![
        Metric {
            name: "runs_per_s",
            value: ratio(
                (first.units - first.failed) as f64,
                window.round_secs() * scale,
            ),
            unit: "1/s",
        },
        Metric {
            name: "sim_cycles_per_run",
            value: ratio(first.cycles as f64, first.units as f64),
            unit: "cycles",
        },
        Metric {
            name: "setup_s",
            value: fastest(&setup_s) * scale,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
    ];
    Ok(Report {
        workload,
        attempted: window.attempted,
        failed: window.failed,
        problems: window.problems.clone(),
        metrics,
        totals: first.totals.clone(),
        calibration_s: Some(calibration_s),
    })
}

fn measure_traced<B: Bench + Sync>(
    workload: Workload,
    bench: &B,
    opts: &Options,
    journal: &Path,
) -> Result<Report, String> {
    let probe = Probe {
        tracer: Tracer::new(),
        sim: Mutex::new(SimStats::default()),
    };
    let (plain, plain_setup) = bench.setup(opts.seed, None)?;
    let (traced, traced_setup) = probe
        .tracer
        .span("perf.setup", || bench.setup(opts.seed, Some(&probe)))?;
    let mut problems = Vec::new();
    if let Some(diff) = totals_diff(&plain_setup, &traced_setup) {
        problems.push(format!(
            "traced set-up differs from untraced set-up: {diff}"
        ));
    }

    let started = Instant::now();
    let (mut untraced_rounds, mut traced_rounds) = (Window::default(), Window::default());
    let mut first_round_spans = None;
    loop {
        let (round, secs) = timed(|| bench.round(&plain, None, journal));
        untraced_rounds.add(round?, secs);
        let (round, secs) = timed(|| {
            probe
                .tracer
                .span("perf.round", || bench.round(&traced, Some(&probe), journal))
        });
        traced_rounds.add(round?, secs);
        first_round_spans.get_or_insert_with(|| probe.tracer.spans().len());
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if let Some(diff) = totals_diff(
        &untraced_rounds.first().totals,
        &traced_rounds.first().totals,
    ) {
        problems.push(format!("traced round differs from untraced round: {diff}"));
    }
    problems.extend(untraced_rounds.problems.iter().cloned());
    problems.extend(traced_rounds.problems.iter().cloned());

    let spans = probe.tracer.spans();
    let sim = probe
        .sim
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let metrics = layers::metrics(&layers::TracedPass {
        spans: &spans,
        sim: &sim,
        rounds: traced_rounds.rounds,
        untraced_round_s: untraced_rounds.round_secs(),
        traced_round_s: traced_rounds.round_secs(),
        journal_bytes: std::fs::metadata(journal).map_or(0, |m| m.len()),
    });
    let first_spans = &spans[..first_round_spans.unwrap_or(spans.len())];
    write_file(
        &opts.out_dir.join(format!("{}.trace.json", workload.name())),
        &tracer::chrome_trace(first_spans),
    )?;
    write_file(
        &opts.out_dir.join(format!("{}.layers.txt", workload.name())),
        &layers::table_text(&spans),
    )?;
    Ok(Report {
        workload,
        attempted: untraced_rounds.attempted + traced_rounds.attempted,
        failed: untraced_rounds.failed + traced_rounds.failed,
        problems,
        metrics,
        totals: traced_rounds.first().totals.clone(),
        calibration_s: None,
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident memory of this process excluding file-backed pages
/// (`VmHWM - RssFile`), in MiB. The file-backed part is the executable
/// and its libraries, which the kernel maps ahead by amounts that change
/// from run to run with address-space layout.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let kb = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no {key} line in /proc/self/status"))
    };
    Ok((kb("VmHWM:")? - kb("RssFile:")?) / 1024.0)
}
