//! Per-layer metrics of the traced pass.
//!
//! Host-time metrics come from the spans (see [`crate::tracer`]);
//! simulated metrics come from the machines the traced rounds ran. The
//! traced pass is one set-up followed by one or more traced rounds:
//!
//! - counts (`*.programs`, `*.builds`, `*.resets`, `*.runs`, `*.calls`,
//!   `sweep.cells`) are per set-up plus one round;
//! - `minic.build_ms` is the compile time of a set-up plus one round;
//! - `*_us` are means per call over every traced call;
//! - `*.share`, `trace.coverage` are fractions of all traced wall time;
//! - simulated metrics (`span.*`, `ckpt.*`, `mcu.*`, `*_per_run`,
//!   `vm.exec.*` rates) cover the rounds' runs, per run or per round.

use std::fmt::Write as _;

use tics_trace::SpanKind;
use tics_vm::Machine;

use crate::tracer::{layer_table, self_times_ns, Span, OWN_LAYER};
use crate::{ratio, Metric};

/// Simulated statistics summed over the traced rounds' machine runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimStats {
    runs: u64,
    instructions: u64,
    useful_instructions: u64,
    cycles: u64,
    span_cycles: [u64; SpanKind::COUNT],
    checkpoints: u64,
    checkpoint_bytes: u64,
    restores: u64,
    recoveries: u64,
    undo_appends: u64,
    power_failures: u64,
    torn_writes: u64,
    corrupted_writes: u64,
    trace_records: u64,
}

impl SimStats {
    /// Adds one finished run of `m`.
    pub(crate) fn add(&mut self, m: &Machine, useful_instructions: u64) {
        let stats = m.stats();
        let mem = m.mem.stats();
        self.runs += 1;
        self.instructions += stats.instructions;
        self.useful_instructions += useful_instructions;
        self.cycles += m.cycles();
        for (sum, c) in self.span_cycles.iter_mut().zip(m.mem.span_cycles_all()) {
            *sum += c;
        }
        self.checkpoints += stats.checkpoints;
        self.checkpoint_bytes += stats.checkpoint_bytes;
        self.restores += stats.restores;
        self.recoveries += stats.recoveries;
        self.undo_appends += stats.undo_log_appends;
        self.power_failures += stats.power_failures;
        self.torn_writes += mem.torn_writes;
        self.corrupted_writes += mem.corrupted_writes;
        self.trace_records += m.trace().len() as u64;
    }
}

/// Everything the per-layer metrics are computed from.
pub(crate) struct TracedPass<'a> {
    pub spans: &'a [Span],
    pub sim: &'a SimStats,
    /// Traced rounds run.
    pub rounds: u64,
    /// Host seconds of an interleaved untraced round.
    pub untraced_round_s: f64,
    /// Host seconds of a traced round.
    pub traced_round_s: f64,
    /// Size of the sweep journal the last round wrote (0 without one).
    pub journal_bytes: u64,
}

/// Span-derived views the metrics share.
struct Spans<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    in_setup: Vec<bool>,
    rounds: f64,
    wall_ns: f64,
}

impl<'a> Spans<'a> {
    fn new(spans: &'a [Span], rounds: u64) -> Spans<'a> {
        // Parents precede children, so one forward pass finds every root.
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p]);
        }
        Spans {
            spans,
            self_ns: self_times_ns(spans),
            in_setup: root
                .iter()
                .map(|&r| spans[r].name == "perf.setup")
                .collect(),
            rounds: rounds.max(1) as f64,
            wall_ns: spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.duration_ns() as f64)
                .sum(),
        }
    }

    /// Sum of `value` over matching spans, per set-up plus one round.
    fn per_pass(&self, matches: impl Fn(&Span) -> bool, value: impl Fn(&Span) -> f64) -> f64 {
        let (mut setup, mut rounds) = (0.0, 0.0);
        for (s, &in_setup) in self.spans.iter().zip(&self.in_setup) {
            if matches(s) {
                if in_setup {
                    setup += value(s);
                } else {
                    rounds += value(s);
                }
            }
        }
        setup + rounds / self.rounds
    }

    fn count(&self, names: &[&str]) -> f64 {
        self.per_pass(|s| names.contains(&s.name), |_| 1.0)
    }

    fn layer_count(&self, layer: &str) -> f64 {
        self.per_pass(|s| s.layer() == layer, |_| 1.0)
    }

    /// Mean duration (µs) of every span named in `names`.
    fn mean_us(&self, names: &[&str]) -> f64 {
        self.mean_us_where(|s| names.contains(&s.name))
    }

    fn mean_us_where(&self, matches: impl Fn(&Span) -> bool) -> f64 {
        let (n, ns) = self
            .spans
            .iter()
            .filter(|s| matches(s))
            .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.duration_ns()));
        ratio(ns as f64, n as f64) / 1e3
    }

    /// Fraction of traced wall time spent in `layer`'s own code.
    fn share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, &ns)| ns)
            .sum();
        ratio(ns as f64, self.wall_ns)
    }

    /// Durations (ns) of the rounds' `vm.exec.run` spans, sorted.
    fn round_exec_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .zip(&self.in_setup)
            .filter(|(s, &in_setup)| !in_setup && s.name == "vm.exec.run")
            .map(|(s, _)| s.duration_ns())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Every per-layer metric, in the order `BENCHMARK.json` declares them.
pub(crate) fn metrics(pass: &TracedPass) -> Vec<Metric> {
    let sp = Spans::new(pass.spans, pass.rounds);
    let sim = pass.sim;
    let rounds = sp.rounds;
    let runs = sim.runs as f64;
    let exec_ns = sp.round_exec_ns();
    let exec_total_ns: f64 = exec_ns.iter().map(|&ns| ns as f64).sum();
    let span_total: u64 = sim.span_cycles.iter().sum();
    let span_share = |k: SpanKind| ratio(sim.span_cycles[k.index()] as f64, span_total as f64);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("minic.programs", sp.layer_count("minic"), "count"),
        m(
            "minic.build_ms",
            sp.per_pass(|s| s.layer() == "minic", |s| s.duration_ns() as f64) / 1e6,
            "ms",
        ),
        m("vm.image.builds", sp.count(&["vm.image.build"]), "count"),
        m("vm.image.build_us", sp.mean_us(&["vm.image.build"]), "us"),
        m("vm.image.share", sp.share("vm.image"), "frac"),
        m(
            "vm.machine.resets",
            sp.count(&["vm.machine.reset", "vm.machine.new"]),
            "count",
        ),
        m(
            "vm.machine.reset_us",
            sp.mean_us(&["vm.machine.reset", "vm.machine.new"]),
            "us",
        ),
        m("vm.machine.share", sp.share("vm.machine"), "frac"),
        m("vm.exec.runs", sp.count(&["vm.exec.run"]), "count"),
        m("vm.exec.share", sp.share("vm.exec"), "frac"),
        m(
            "vm.exec.ns_per_instr",
            ratio(exec_total_ns, sim.instructions as f64),
            "ns",
        ),
        m(
            "vm.exec.sim_mhz",
            ratio(sim.cycles as f64, exec_total_ns / 1e3),
            "MHz",
        ),
        m("vm.exec.run_us_p50", percentile(&exec_ns, 50.0) / 1e3, "us"),
        m("vm.exec.run_us_p99", percentile(&exec_ns, 99.0) / 1e3, "us"),
        m(
            "vm.exec.useful_frac",
            ratio(sim.useful_instructions as f64, sim.instructions as f64),
            "frac",
        ),
        m("span.app", span_share(SpanKind::App), "frac"),
        m("span.checkpoint", span_share(SpanKind::Checkpoint), "frac"),
        m("span.restore", span_share(SpanKind::Restore), "frac"),
        m("span.undo_log", span_share(SpanKind::UndoLog), "frac"),
        m("span.rollback", span_share(SpanKind::Rollback), "frac"),
        m(
            "span.stack_segment",
            span_share(SpanKind::StackSegment),
            "frac",
        ),
        m("span.isr", span_share(SpanKind::Isr), "frac"),
        m("span.driver", span_share(SpanKind::Driver), "frac"),
        m(
            "ckpt.commits_per_run",
            ratio(sim.checkpoints as f64, runs),
            "count",
        ),
        m(
            "ckpt.bytes_per_commit",
            ratio(sim.checkpoint_bytes as f64, sim.checkpoints as f64),
            "B",
        ),
        m(
            "ckpt.restores_per_run",
            ratio(sim.restores as f64, runs),
            "count",
        ),
        m("ckpt.recoveries", sim.recoveries as f64 / rounds, "count"),
        m(
            "ckpt.undo_appends_per_run",
            ratio(sim.undo_appends as f64, runs),
            "count",
        ),
        m("mcu.torn_writes", sim.torn_writes as f64 / rounds, "count"),
        m(
            "mcu.corrupted_writes",
            sim.corrupted_writes as f64 / rounds,
            "count",
        ),
        m(
            "energy.power_failures_per_run",
            ratio(sim.power_failures as f64, runs),
            "count",
        ),
        m("energy.supply_us", sp.mean_us(&["energy.supply"]), "us"),
        m(
            "trace.records_per_run",
            ratio(sim.trace_records as f64, runs),
            "count",
        ),
        m("oracle.calls", sp.layer_count("oracle"), "count"),
        m(
            "oracle.us",
            sp.mean_us_where(|s| s.layer() == "oracle"),
            "us",
        ),
        m("oracle.share", sp.share("oracle"), "frac"),
        m("sweep.cells", sp.count(&["perf.cell"]), "count"),
        m("sweep.share", sp.share("sweep"), "frac"),
        m("journal.bytes", pass.journal_bytes as f64, "B"),
        m("trace.coverage", 1.0 - sp.share(OWN_LAYER), "frac"),
        m(
            "trace.overhead",
            ratio(pass.traced_round_s, pass.untraced_round_s) - 1.0,
            "frac",
        ),
    ]
}

/// The per-layer self-time table written next to the Chrome trace.
pub(crate) fn table_text(spans: &[Span]) -> String {
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let mut out = format!(
        "{:<12} {:>12} {:>8} {:>10}\n",
        "layer", "self_ms", "share", "spans"
    );
    for (layer, ns, n) in layer_table(spans) {
        let _ = writeln!(
            out,
            "{layer:<12} {:>12.3} {:>8.4} {n:>10}",
            ns as f64 / 1e6,
            ratio(ns as f64, wall_ns as f64),
        );
    }
    let _ = writeln!(out, "{:<12} {:>12.3}", "wall", wall_ns as f64 / 1e6);
    out
}
