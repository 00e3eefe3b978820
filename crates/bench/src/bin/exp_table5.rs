//! Table 5 — the state-of-the-art programming-model capability matrix,
//! reported live by each runtime implementation. One sweep cell per
//! runtime; the journal keeps the machine-readable matrix.

use tics_apps::build::make_runtime;
use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_minic::Program;

/// Table 5's rows, in the paper's order.
const SYSTEMS: [SystemUnderTest; 7] = [
    SystemUnderTest::Mayfly,
    SystemUnderTest::Alpaca,
    SystemUnderTest::Ratchet,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Ink,
    SystemUnderTest::Mementos,
    SystemUnderTest::Tics,
];

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("table5", &SWEEP);
    println!("Table 5: programming-model capability matrix\n");

    let mut sweep = exp.sweep();
    for system in SYSTEMS {
        sweep = sweep.cell(Cell::new(App::Bc, system));
    }
    let outcome = exp.run(sweep, |cell| {
        let rt = make_runtime(cell.system, &Program::default());
        let c = rt.capabilities();
        Ok(CellOutput {
            outcome: "queried".to_string(),
            ..CellOutput::default()
        }
        .with("runtime", rt.name())
        .with("pointer_support", c.pointer_support)
        .with("recursion_support", c.recursion_support)
        .with("scalable", c.scalable)
        .with("timely_execution", c.timely_execution)
        .with("memory_consistency", c.memory_consistency)
        .with("porting_effort", c.porting_effort.to_string()))
    });

    println!(
        "{:<16} {:>8} {:>10} {:>9} {:>7} {:>11} {:>9}",
        "runtime", "pointers", "recursion", "scalable", "timely", "consistent", "porting"
    );
    let mut table = Vec::new();
    for row in &outcome.rows {
        let get = |k: &str| row.metric(k).and_then(Json::as_bool).unwrap_or(false);
        let name = row.metric("runtime").and_then(Json::as_str).unwrap_or("?");
        let porting = row
            .metric("porting_effort")
            .and_then(Json::as_str)
            .unwrap_or("?");
        println!(
            "{:<16} {:>8} {:>10} {:>9} {:>7} {:>11} {:>9}",
            name,
            yn(get("pointer_support")),
            yn(get("recursion_support")),
            yn(get("scalable")),
            yn(get("timely_execution")),
            yn(get("memory_consistency")),
            porting
        );
        table.push(
            Json::obj()
                .field("runtime", name)
                .field("pointer_support", get("pointer_support"))
                .field("recursion_support", get("recursion_support"))
                .field("scalable", get("scalable"))
                .field("timely_execution", get("timely_execution"))
                .field("memory_consistency", get("memory_consistency"))
                .field("porting_effort", porting)
                .build(),
        );
    }
    // The TICS row is the only all-yes row with zero porting effort.
    let tics = outcome.rows.last().expect("rows");
    let get = |k: &str| tics.metric(k).and_then(Json::as_bool).unwrap_or(false);
    let all_yes = get("pointer_support")
        && get("recursion_support")
        && get("scalable")
        && get("timely_execution")
        && get("memory_consistency")
        && tics.metric("porting_effort").and_then(Json::as_str) == Some("None");
    exp.check("paper shape", all_yes, || {
        "the TICS row is not all-yes with no porting effort".to_string()
    });
    exp.finish(&Json::Arr(table))
}
