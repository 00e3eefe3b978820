//! `exp_profile` — the observability payoff of cycle-attributed spans.
//!
//! Three jobs, all reading the one structured trace:
//!
//! 1. **Table 4 from spans** — each runtime operation is re-priced by
//!    running a micro-program in detailed trace mode and averaging the
//!    self-cycles of its attributed spans (checkpoint, restore, undo-log
//!    append, pointer classification, rollback, stack switch). The
//!    measured value must land within ±1 cycle of the `CostModel`
//!    price, which proves the runtime charges *exactly* what the model
//!    says — per operation, not just in aggregate. Checkpoint commits
//!    split into two rows: full images are priced by segment size,
//!    delta records by their own observed payload.
//! 2. **Figure-9-style breakdown** — every app × system cell runs on
//!    periodic power and reports where its cycles went (app vs each
//!    runtime span). The span-total identity Σ(per-span cycles) ==
//!    total machine cycles is checked on every cell; a violation is a
//!    charging bug and fails the run (the CI smoke run relies on this
//!    exit code).
//! 3. **Chrome trace export** — `--trace-out PATH` re-runs one cell
//!    (default `AR:TICS`, override with `--trace-cell APP:SYSTEM`) in
//!    detailed mode and writes its trace as `chrome://tracing` /
//!    Perfetto JSON.

use std::path::Path;
use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::CellStatus;
use tics_bench::sweep::{default_runner, Cell, CellOutput, SupplySpec};
use tics_bench::Json;
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::{ContinuousPower, PowerSupply, RecordedTrace};
use tics_mcu::CostModel;
use tics_minic::{compile, opt::OptLevel, passes};
use tics_trace::{chrome_trace_json, SpanKind, TraceEvent, TraceRecord};
use tics_vm::{Executor, Machine, MachineConfig};

const APPS: [App; 3] = [App::Ar, App::Bc, App::Cuckoo];

// ---------------------------------------------------------------------
// Span extraction
// ---------------------------------------------------------------------

/// One closed span: its kind, its *self* cycles (time inside nested
/// child spans excluded — matching how the memory system attributes to
/// the innermost open span), and the events recorded while it was the
/// innermost open span.
struct SpanInstance {
    kind: SpanKind,
    cycles: u64,
    events: Vec<TraceEvent>,
}

/// Pairs `SpanEnter`/`SpanExit` records (a detailed-mode trace) into
/// closed instances.
fn span_instances(records: &[TraceRecord]) -> Vec<SpanInstance> {
    // (kind, enter cycle, cycles spent in child spans, interior events)
    let mut stack: Vec<(SpanKind, u64, u64, Vec<TraceEvent>)> = Vec::new();
    let mut out = Vec::new();
    for r in records {
        match r.event {
            TraceEvent::SpanEnter { kind } => stack.push((kind, r.cycle, 0, Vec::new())),
            TraceEvent::SpanExit { kind } => {
                if let Some((k, at, child, events)) = stack.pop() {
                    assert_eq!(k, kind, "unbalanced span enter/exit in trace");
                    let total = r.cycle - at;
                    out.push(SpanInstance {
                        kind,
                        cycles: total - child,
                        events,
                    });
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                }
            }
            ev => {
                if let Some((_, _, _, events)) = stack.last_mut() {
                    events.push(ev);
                }
            }
        }
    }
    out
}

impl SpanInstance {
    fn has(&self, pred: impl Fn(&TraceEvent) -> bool) -> bool {
        self.events.iter().any(pred)
    }
}

fn average(values: impl Iterator<Item = u64>) -> Option<u64> {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n)
}

// ---------------------------------------------------------------------
// Micro-measurements (Table 4 rebuilt from attributed spans)
// ---------------------------------------------------------------------

/// Runs a TICS micro-program with detail recording on and returns the
/// full trace.
fn run_detailed(src: &str, cfg: TicsConfig, supply: &mut dyn PowerSupply) -> Vec<TraceRecord> {
    let mut prog = compile(src, OptLevel::O2).expect("micro-program compiles");
    passes::instrument_tics(&mut prog).expect("micro-program instruments");
    let mut m = Machine::new(prog, MachineConfig::default()).expect("micro-program loads");
    m.trace_mut().set_detailed(true);
    let _ = Executor::new()
        .with_time_budget(1_000_000_000)
        .run(&mut m, &mut TicsRuntime::new(cfg), supply)
        .expect("micro-program runs");
    assert_eq!(
        m.mem.span_cycles_all().iter().sum::<u64>(),
        m.cycles(),
        "span-total identity violated by a micro-program"
    );
    m.trace().records().to_vec()
}

/// Self-cycles and committed bytes of every checkpoint-commit span in a
/// 12-checkpoint micro-loop at segment size `seg`. The first commit is
/// a full image; the rest ride the delta chain, so the two populations
/// are told apart by their committed byte counts.
fn checkpoint_commit_spans(seg: u32) -> Vec<(u64, u64)> {
    let src = "int main() { for (int i = 0; i < 12; i++) { checkpoint(); } return 0; }";
    let records = run_detailed(
        src,
        TicsConfig::s2().with_seg_size(seg),
        &mut ContinuousPower::new(),
    );
    span_instances(&records)
        .iter()
        .filter(|s| s.kind == SpanKind::Checkpoint)
        .filter_map(|s| {
            s.events.iter().find_map(|e| match e {
                TraceEvent::CheckpointCommit { bytes, .. } => Some((s.cycles, *bytes)),
                _ => None,
            })
        })
        .collect()
}

/// Model vs measured cost of a *full-image* checkpoint commit at
/// segment size `seg` — the spans whose commit wrote the whole bank
/// (the model prices these by segment size).
fn measure_checkpoint_full(seg: u32) -> Option<(u64, u64)> {
    let spans = checkpoint_commit_spans(seg);
    let full = spans.iter().map(|&(_, b)| b).max()?;
    let measured = average(spans.iter().filter(|&&(_, b)| b == full).map(|&(c, _)| c))?;
    Some((CostModel::default().checkpoint_cost(seg), measured))
}

/// Model vs measured cost of *delta-record* commits. A delta is priced
/// by its payload, not the segment size, so each span's model price is
/// `checkpoint_cost(bytes)` for the payload bytes its own commit event
/// reports; model and measured are averaged over the same spans.
fn measure_checkpoint_delta(seg: u32) -> Option<(u64, u64)> {
    let spans = checkpoint_commit_spans(seg);
    let full = spans.iter().map(|&(_, b)| b).max()?;
    let deltas: Vec<(u64, u64)> = spans.into_iter().filter(|&(_, b)| b < full).collect();
    let model = average(deltas.iter().map(|&(_, b)| {
        CostModel::default().checkpoint_cost(u32::try_from(b).expect("delta fits u32"))
    }))?;
    let measured = average(deltas.iter().map(|&(c, _)| c))?;
    Some((model, measured))
}

/// Average self-cycles of restore spans at segment size `seg` (power is
/// cut 32 times; each reboot restores the sole checkpoint).
fn measure_restore(seg: u32) -> Option<u64> {
    let src = "int main() { checkpoint(); while (1) { } return 0; }";
    let mut supply = RecordedTrace::new(vec![(5_000, 100); 33]);
    let records = run_detailed(src, TicsConfig::s2().with_seg_size(seg), &mut supply);
    average(
        span_instances(&records)
            .iter()
            .filter(|s| s.kind == SpanKind::Restore)
            .filter(|s| s.has(|e| matches!(e, TraceEvent::Restore { .. })))
            .map(|s| s.cycles),
    )
}

/// Average self-cycles of undo-log spans that appended an entry (a
/// pointer store to FRAM data).
fn measure_logged_store() -> Option<u64> {
    let src =
        "int g; int main() { int *p = &g; for (int i = 0; i < 64; i++) { *p = i; } return g; }";
    let cfg = TicsConfig {
        undo_capacity: 512,
        ..TicsConfig::s2()
    };
    let records = run_detailed(src, cfg, &mut ContinuousPower::new());
    average(
        span_instances(&records)
            .iter()
            .filter(|s| s.kind == SpanKind::UndoLog)
            .filter(|s| s.has(|e| matches!(e, TraceEvent::UndoAppend { .. })))
            .map(|s| s.cycles),
    )
}

/// Average self-cycles of undo-log spans that only classified the
/// pointer (a store into the working stack — Table 4's "no log" row).
fn measure_unlogged_store() -> Option<u64> {
    let src =
        "int main() { int x; int *p = &x; for (int i = 0; i < 64; i++) { *p = i; } return x; }";
    let records = run_detailed(src, TicsConfig::s2(), &mut ContinuousPower::new());
    average(
        span_instances(&records)
            .iter()
            .filter(|s| s.kind == SpanKind::UndoLog)
            .filter(|s| !s.has(|e| matches!(e, TraceEvent::UndoAppend { .. })))
            .map(|s| s.cycles),
    )
}

/// Per-entry rollback cost: total rollback-span self-cycles over total
/// entries rolled back (an nv counter mutated until power dies).
fn measure_rollback() -> Option<u64> {
    let src = "nv int g; int main() { checkpoint(); while (1) { g = g + 1; } return 0; }";
    let mut supply = RecordedTrace::new(vec![(5_000, 100); 33]);
    let records = run_detailed(src, TicsConfig::s2(), &mut supply);
    let (mut cycles, mut entries) = (0u64, 0u64);
    for s in span_instances(&records)
        .iter()
        .filter(|s| s.kind == SpanKind::Rollback)
    {
        let n = s
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rollback { .. }))
            .count() as u64;
        if n > 0 {
            cycles += s.cycles;
            entries += n;
        }
    }
    (entries > 0).then(|| cycles / entries)
}

/// Stack-segment spans of a deep-frame call loop, split grow vs shrink.
fn measure_stack_switch(grow: bool) -> Option<u64> {
    let src = "int leaf(int x) { int pad[56]; pad[0] = x; return pad[0]; }
               int main() { int s = 0; for (int i = 0; i < 16; i++) { s += leaf(i); } return s; }";
    let records = run_detailed(
        src,
        TicsConfig::s2().with_seg_size(256),
        &mut ContinuousPower::new(),
    );
    let want = if grow {
        TraceEvent::StackGrow
    } else {
        TraceEvent::StackShrink
    };
    average(
        span_instances(&records)
            .iter()
            .filter(|s| s.kind == SpanKind::StackSegment)
            .filter(|s| s.has(|e| *e == want))
            .map(|s| s.cycles),
    )
}

struct MicroOp {
    operation: &'static str,
    configuration: &'static str,
    /// Returns `(model cycles, measured cycles)` — the model side is a
    /// closure because delta-record commits are priced by their own
    /// observed payload, which only the measurement run knows.
    measure: fn() -> Option<(u64, u64)>,
}

fn micro_ops() -> Vec<MicroOp> {
    vec![
        MicroOp {
            operation: "checkpoint logic",
            configuration: "64 B seg.",
            measure: || measure_checkpoint_full(64),
        },
        MicroOp {
            operation: "checkpoint logic",
            configuration: "256 B seg.",
            measure: || measure_checkpoint_full(256),
        },
        MicroOp {
            operation: "checkpoint logic",
            configuration: "delta rec.",
            measure: || measure_checkpoint_delta(256),
        },
        MicroOp {
            operation: "restore logic",
            configuration: "64 B seg.",
            measure: || measure_restore(64).map(|m| (CostModel::default().restore_cost(64), m)),
        },
        MicroOp {
            operation: "restore logic",
            configuration: "256 B seg.",
            measure: || measure_restore(256).map(|m| (CostModel::default().restore_cost(256), m)),
        },
        MicroOp {
            operation: "pointer access",
            configuration: "no log",
            measure: || measure_unlogged_store().map(|m| (CostModel::default().ptr_check, m)),
        },
        MicroOp {
            operation: "pointer access",
            configuration: "log 4 B",
            measure: || measure_logged_store().map(|m| (CostModel::default().undo_log_cost(4), m)),
        },
        MicroOp {
            operation: "roll back from undo log",
            configuration: "4 B entry",
            measure: || measure_rollback().map(|m| (CostModel::default().rollback_cost(4), m)),
        },
        MicroOp {
            operation: "stack segment grow",
            configuration: "4 B args",
            measure: || {
                measure_stack_switch(true).map(|m| (CostModel::default().stack_switch_cost(4), m))
            },
        },
        MicroOp {
            operation: "stack segment shrink",
            configuration: "",
            measure: || {
                measure_stack_switch(false).map(|m| (CostModel::default().stack_switch_cost(0), m))
            },
        },
    ]
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

/// The default runner keeps sweeps lean (timeline events only), so the
/// export path runs the cell itself with detail recording on.
fn run_cell_detailed(cell: &Cell) -> Result<Vec<TraceRecord>, String> {
    let prog = tics_apps::build_app(
        cell.app,
        cell.system,
        cell.opt,
        tics_apps::build::Scale(cell.scale),
    )
    .map_err(|e| e.to_string())?;
    let mut m = cell.machine(&prog).map_err(|e| e.to_string())?;
    m.trace_mut().set_detailed(true);
    let mut rt = tics_apps::build::make_runtime(cell.system, &prog);
    let _ = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .run(&mut m, rt.as_mut(), cell.supply.build(cell.seed).as_mut())
        .map_err(|e| e.to_string())?;
    Ok(m.trace().records().to_vec())
}

/// Re-runs one app × system cell in detailed mode and writes its trace
/// as Chrome `chrome://tracing` JSON.
fn export_trace(path: &Path, app: App, system: SystemUnderTest) -> Result<(), String> {
    let mut cell = Cell::new(app, system)
        .supply(SupplySpec::Periodic {
            on_us: 100_000,
            off_us: 5_000,
        })
        .scale(8)
        .budget(2_000_000_000);
    cell.seed = 0x0071_2ACE;
    let records = run_cell_detailed(&cell)
        .map_err(|e| format!("trace cell {}:{} failed: {e}", app.name(), system.name()))?;
    std::fs::write(path, chrome_trace_json(&records))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!(
        "(wrote {} — {} records; load in chrome://tracing or Perfetto)",
        path.display(),
        records.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

fn main() -> std::process::ExitCode {
    let accepted = [&SWEEP[..], &["--trace-out", "--trace-cell"]].concat();
    let mut exp = Experiment::from_env("profile", &accepted);
    println!("Profile: Table 4 from attributed spans + Figure-9-style cycle breakdown\n");

    let ops = micro_ops();
    let mut sweep = exp.sweep();
    for (i, op) in ops.iter().enumerate() {
        sweep = sweep.cell(
            Cell::new(App::Bc, SystemUnderTest::Tics)
                .label(&format!("op:{}", op.operation))
                .param("phase", "table4")
                .param("op_index", i)
                .param("operation", op.operation)
                .param("configuration", op.configuration),
        );
    }
    for app in APPS {
        for system in SystemUnderTest::ALL {
            sweep = sweep.cell(
                Cell::new(app, system)
                    .supply(SupplySpec::Periodic {
                        on_us: 100_000,
                        off_us: 5_000,
                    })
                    .scale(8)
                    .budget(2_000_000_000)
                    .param("phase", "fig9"),
            );
        }
    }

    let ops_ref = &ops;
    let outcome = exp.run(sweep, move |cell| {
        if cell.param_str("phase") == "table4" {
            let i = usize::try_from(cell.param_i64("op_index")).expect("index");
            let measured = (ops_ref[i].measure)();
            let mut out = CellOutput {
                outcome: measured.map_or("no-instances", |_| "measured").to_string(),
                ..CellOutput::default()
            };
            if let Some((model, m)) = measured {
                out = out.with("model_us", model).with("measured_us", m);
            }
            Ok(out)
        } else {
            default_runner(cell)
        }
    });

    // --- Table 4 cross-check -----------------------------------------
    println!(
        "{:<24} {:<12} {:>8} {:>10} {:>4}",
        "operation", "config", "model", "spans", "ok"
    );
    let mut table = Vec::new();
    for row in outcome
        .rows
        .iter()
        .filter(|r| r.metric("phase").and_then(Json::as_str) == Some("table4"))
    {
        let operation = row
            .metric("operation")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let configuration = row
            .metric("configuration")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let model = row.metric_u64("model_us").unwrap_or(0);
        let measured = row.metric_u64("measured_us");
        let ok = measured.is_some_and(|m| m.abs_diff(model) <= 1);
        exp.check("table4 within ±1 cycle", ok, || {
            format!("{operation} ({configuration}): model {model}, spans {measured:?}")
        });
        println!(
            "{:<24} {:<12} {:>8} {:>10} {:>4}",
            operation,
            configuration,
            model,
            measured.map_or("-".to_string(), |m| m.to_string()),
            if ok { "yes" } else { "NO" }
        );
        table.push(
            Json::obj()
                .field("operation", operation)
                .field("configuration", configuration)
                .field("model_us", model)
                .field("measured_us", measured.map_or(Json::Null, Json::from))
                .field("ok", ok)
                .build(),
        );
    }

    // --- Figure-9-style breakdown ------------------------------------
    println!("\napp/runtime cycle breakdown (per system × benchmark, % of total):\n");
    println!(
        "{:<6} {:<12} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "system", "cycles", "app%", "ckpt%", "rest%", "log%", "roll%", "seg%", "isr%"
    );
    let mut breakdown = Vec::new();
    for row in outcome
        .rows
        .iter()
        .filter(|r| r.metric("phase").and_then(Json::as_str) == Some("fig9"))
    {
        if row.status != CellStatus::Ok {
            // Infeasible app × system combinations are the paper's red
            // crosses; panicked cells fail the `cells` gate.
            continue;
        }
        let total: u64 = row.spans.iter().sum();
        exp.check("span identity", total == row.cycles, || {
            format!(
                "{} x {}: sum(spans) = {total} != cycles = {}",
                row.app, row.system, row.cycles
            )
        });
        if total != row.cycles {
            continue;
        }
        let pct = |k: SpanKind| -> f64 {
            if total == 0 {
                0.0
            } else {
                100.0 * row.spans[k.index()] as f64 / total as f64
            }
        };
        println!(
            "{:<6} {:<12} {:>12} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            row.app,
            row.system,
            row.cycles,
            pct(SpanKind::App),
            pct(SpanKind::Checkpoint),
            pct(SpanKind::Restore),
            pct(SpanKind::UndoLog),
            pct(SpanKind::Rollback),
            pct(SpanKind::StackSegment),
            pct(SpanKind::Isr),
        );
        breakdown.push(
            Json::obj()
                .field("app", row.app.as_str())
                .field("system", row.system.as_str())
                .field("cycles", row.cycles)
                .field(
                    "spans",
                    Json::Obj(
                        SpanKind::ALL
                            .iter()
                            .map(|&k| (k.label().to_string(), Json::from(row.spans[k.index()])))
                            .collect(),
                    ),
                )
                .build(),
        );
    }

    if let Some(path) = &exp.args.trace_out {
        let (app, system) = exp
            .args
            .trace_cell
            .unwrap_or((App::Ar, SystemUnderTest::Tics));
        let exported = export_trace(path, app, system);
        exp.check("trace export", exported.is_ok(), || exported.unwrap_err());
    }
    exp.finish(
        &Json::obj()
            .field("table4_from_spans", Json::Arr(table))
            .field("breakdown", Json::Arr(breakdown))
            .build(),
    )
}
