//! Table 4 — TICS overhead split per runtime operation (µs at 1 MHz).
//!
//! Two columns per operation: the calibrated cost-model value (matching
//! the paper by construction — see DESIGN.md §4) and a value *measured*
//! by running micro-programs on the simulator and differencing cycle
//! counts, which validates that the runtime actually charges what the
//! model says. Restores have no cycle-differenced measurement here:
//! `exp_profile` measures them from restore spans. Each (operation ×
//! configuration) pair is one sweep cell, so the micro-measurements run
//! in parallel and land in `results/table4.jsonl`.

use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_core::{TicsConfig, TicsRuntime};
use tics_energy::ContinuousPower;
use tics_mcu::CostModel;
use tics_minic::{compile, opt::OptLevel, passes};
use tics_vm::{Executor, Machine, MachineConfig};

/// Runs a TICS program and returns (cycles, stats).
fn run_tics(src: &str, cfg: TicsConfig) -> (u64, tics_vm::ExecStats) {
    let mut prog = compile(src, OptLevel::O2).expect("compiles");
    passes::instrument_tics(&mut prog).expect("instruments");
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let mut rt = TicsRuntime::new(cfg);
    Executor::new()
        .with_time_budget(1_000_000_000)
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .expect("runs");
    (m.cycles(), m.stats().clone())
}

/// Measured checkpoint cost at a given segment size: difference between
/// a loop with N manual checkpoints and the same loop without.
fn measure_checkpoint(seg: u32) -> u64 {
    let n: u32 = 64;
    let with =
        format!("int main() {{ for (int i = 0; i < {n}; i++) {{ checkpoint(); }} return 0; }}");
    let without = format!("int main() {{ for (int i = 0; i < {n}; i++) {{ }} return 0; }}");
    let cfg = TicsConfig::s2().with_seg_size(seg.max(64));
    let (c_with, s) = run_tics(&with, cfg.clone());
    let (c_without, _) = run_tics(&without, cfg);
    assert!(s.checkpoints >= u64::from(n));
    // The empty loop compiles shorter; normalize per checkpoint. The
    // syscall push/pop overhead stays in the measurement (~the paper's
    // call overhead).
    (c_with - c_without) / u64::from(n)
}

/// Measured logged pointer store: loop of stores through a pointer to a
/// global vs the same loop writing a local.
fn measure_logged_store() -> u64 {
    let n: u32 = 128;
    let logged = format!(
        "int g; int main() {{ int *p = &g; for (int i = 0; i < {n}; i++) {{ *p = i; }} return g; }}"
    );
    let local =
        format!("int main() {{ int x; for (int i = 0; i < {n}; i++) {{ x = i; }} return x; }}");
    // Large undo log so no forced checkpoints pollute the measurement.
    let cfg = TicsConfig {
        undo_capacity: 4 * n,
        ..TicsConfig::s2()
    };
    let (c_logged, s) = run_tics(&logged, cfg.clone());
    let (c_local, _) = run_tics(&local, cfg);
    assert!(s.undo_log_appends >= u64::from(n));
    (c_logged - c_local) / u64::from(n)
}

/// Measured stack grow + shrink pair: calls that force a segment switch
/// vs calls that fit in the working segment.
fn measure_stack_switch_pair() -> u64 {
    let n: u32 = 64;
    let big = format!(
        "int leaf(int x) {{ int pad[56]; pad[0] = x; return pad[0]; }}
         int main() {{ int s = 0; for (int i = 0; i < {n}; i++) {{ s += leaf(i); }} return s; }}"
    );
    let small = format!(
        "int leaf(int x) {{ int pad[2]; pad[0] = x; return pad[0]; }}
         int main() {{ int s = 0; for (int i = 0; i < {n}; i++) {{ s += leaf(i); }} return s; }}"
    );
    let cfg = TicsConfig::s2().with_seg_size(256);
    let (c_big, s) = run_tics(&big, cfg.clone());
    let (c_small, _) = run_tics(&small, cfg);
    assert!(s.stack_grows >= u64::from(n), "grows: {}", s.stack_grows);
    // Each iteration pays one grow + one shrink (plus the enforced
    // shrink checkpoint, subtracted via the checkpoint count).
    let ckpt_cost = CostModel::default().checkpoint_cost(256) * s.checkpoints;
    (c_big.saturating_sub(c_small).saturating_sub(ckpt_cost)) / u64::from(2 * n)
}

struct Op {
    operation: &'static str,
    configuration: &'static str,
    paper_us: u64,
    model_us: u64,
    measure: Option<fn() -> u64>,
}

fn operations() -> Vec<Op> {
    let model = CostModel::default();
    vec![
        Op {
            operation: "stack grow/shrink",
            configuration: "max",
            paper_us: 345,
            model_us: model.stack_switch_cost(64),
            measure: Some(measure_stack_switch_pair),
        },
        Op {
            operation: "checkpoint logic",
            configuration: "0 B seg.",
            paper_us: 264,
            model_us: model.checkpoint_cost(0),
            measure: None,
        },
        Op {
            operation: "checkpoint logic",
            configuration: "64 B seg.",
            paper_us: 464,
            model_us: model.checkpoint_cost(64),
            measure: Some(|| measure_checkpoint(64)),
        },
        Op {
            operation: "checkpoint logic",
            configuration: "256 B seg.",
            paper_us: 656,
            model_us: model.checkpoint_cost(256),
            measure: Some(|| measure_checkpoint(256)),
        },
        Op {
            operation: "restore logic",
            configuration: "0 B seg.",
            paper_us: 273,
            model_us: model.restore_cost(0),
            measure: None,
        },
        Op {
            operation: "restore logic",
            configuration: "64 B seg.",
            paper_us: 475,
            model_us: model.restore_cost(64),
            measure: None,
        },
        Op {
            operation: "restore logic",
            configuration: "256 B seg.",
            paper_us: 664,
            model_us: model.restore_cost(256),
            measure: None,
        },
        Op {
            operation: "pointer access",
            configuration: "no log",
            paper_us: 13,
            model_us: model.ptr_check,
            measure: None,
        },
        Op {
            operation: "pointer access",
            configuration: "log 4 B",
            paper_us: 321,
            model_us: model.undo_log_cost(4),
            measure: Some(measure_logged_store),
        },
        Op {
            operation: "roll back from undo log",
            configuration: "4 B",
            paper_us: 234,
            model_us: model.rollback_cost(4),
            measure: None,
        },
        Op {
            operation: "roll back from undo log",
            configuration: "64 B",
            paper_us: 294,
            model_us: model.rollback_cost(64),
            measure: None,
        },
    ]
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("table4", &SWEEP);
    println!("Table 4: TICS overhead per runtime operation (µs at 1 MHz)\n");

    let ops = operations();
    let mut sweep = exp.sweep();
    for (i, op) in ops.iter().enumerate() {
        sweep = sweep.cell(
            Cell::new(App::Bc, SystemUnderTest::Tics)
                .param("op_index", i)
                .param("operation", op.operation)
                .param("configuration", op.configuration)
                .param("paper_us", op.paper_us)
                .param("model_us", op.model_us),
        );
    }
    let ops_ref = &ops;
    let outcome = exp.run(sweep, move |cell| {
        let i = usize::try_from(cell.param_i64("op_index")).expect("index");
        let op = &ops_ref[i];
        let measured = op.measure.map(|f| f());
        let mut out = CellOutput {
            outcome: "measured".to_string(),
            ..CellOutput::default()
        };
        if let Some(m) = measured {
            out = out.with("measured_us", m);
        }
        Ok(out)
    });

    println!(
        "{:<28} {:<16} {:>8} {:>8} {:>9}",
        "operation", "configuration", "paper", "model", "measured"
    );
    let mut table = Vec::new();
    for row in &outcome.rows {
        let operation = row
            .metric("operation")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let configuration = row
            .metric("configuration")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let paper = row.metric_u64("paper_us").unwrap_or(0);
        let model = row.metric_u64("model_us").unwrap_or(0);
        let measured = row.metric_u64("measured_us");
        println!(
            "{:<28} {:<16} {:>8} {:>8} {:>9}",
            operation,
            configuration,
            paper,
            model,
            measured.map_or("-".to_string(), |m| m.to_string())
        );
        table.push(
            Json::obj()
                .field("operation", operation)
                .field("configuration", configuration)
                .field("paper_us", paper)
                .field("model_us", model)
                .field("measured_us", measured)
                .build(),
        );
    }
    println!(
        "\nModel values are calibrated to Table 4 by construction; measured \
         values come from cycle-differencing micro-programs on the simulator. \
         Restore costs are measured from restore spans by exp_profile \
         (within ±1 cycle of the model)."
    );
    exp.finish(&Json::Arr(table))
}
