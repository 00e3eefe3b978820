//! Table 3 — memory consumption (`.text` / `.data` bytes) of AR, BC and
//! CF under InK, Chinchilla, and TICS.
//!
//! As in the paper, Chinchilla's BC uses the manually de-recursed port
//! (Chinchilla cannot run recursion), and the TICS/Chinchilla `.data`
//! figures exclude the configurable buffers (segment array, undo log);
//! task-shared shadow copies are included for InK. Cells are pure
//! builds (no simulation), journaled like any other sweep.

use tics_apps::build::{build_program, Scale};
use tics_apps::{bc, build_app, App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::{CellStatus, JournalRow};
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;
use tics_minic::opt::OptLevel;

fn build_cell(cell: &Cell) -> Result<CellOutput, String> {
    // Chinchilla only exists at -O0 (its toolchain constraint), and its
    // BC uses the manually de-recursed port ("the authors have manually
    // removed the recursion to make it work with their system").
    let prog = if cell.system == SystemUnderTest::Chinchilla && cell.app == App::Bc {
        let legacy = bc::norec_src(cell.scale);
        build_program(
            cell.system,
            &legacy,
            Err("Table 3 builds no task port"),
            cell.opt,
        )
    } else {
        build_app(cell.app, cell.system, cell.opt, Scale(cell.scale))
    }
    .map_err(|e| e.to_string())?;
    Ok(CellOutput {
        outcome: "built".to_string(),
        text_bytes: prog.text_bytes(),
        data_bytes: prog.data_bytes(),
        ..CellOutput::default()
    })
}

fn sizes(rows: &[JournalRow], app: App, system: SystemUnderTest) -> (u32, u32) {
    let r = rows
        .iter()
        .find(|r| r.app == app.name() && r.system == system.name())
        .expect("cell journaled");
    (r.text_bytes, r.data_bytes)
}

const SYSTEMS: [SystemUnderTest; 3] = [
    SystemUnderTest::Ink,
    SystemUnderTest::Chinchilla,
    SystemUnderTest::Tics,
];

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("table3", &SWEEP);
    println!("Table 3: memory consumption (bytes)\n");

    let mut sweep = exp.sweep();
    for app in [App::Ar, App::Bc, App::Cuckoo] {
        for system in SYSTEMS {
            let opt = system.toolchain_opt(OptLevel::O2);
            sweep = sweep.cell(Cell::new(app, system).opt(opt).scale(24));
        }
    }
    let outcome = exp.run(sweep, build_cell);
    for r in &outcome.rows {
        let failed = || format!("{} x {}: {}", r.app, r.system, r.outcome);
        exp.check("builds", r.status == CellStatus::Ok, failed);
    }

    println!(
        "{:<4} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "", "InK .text", ".data", "Chin .text", ".data", "TICS .text", ".data"
    );
    let mut table = Vec::new();
    for app in [App::Ar, App::Bc, App::Cuckoo] {
        let (ink_t, ink_d) = sizes(&outcome.rows, app, SystemUnderTest::Ink);
        let (chin_t, chin_d) = sizes(&outcome.rows, app, SystemUnderTest::Chinchilla);
        let (tics_t, tics_d) = sizes(&outcome.rows, app, SystemUnderTest::Tics);
        println!(
            "{:<4} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
            app.name(),
            ink_t,
            ink_d,
            chin_t,
            chin_d,
            tics_t,
            tics_d
        );
        for (system, t, d) in [
            ("InK", ink_t, ink_d),
            ("Chinchilla", chin_t, chin_d),
            ("TICS", tics_t, tics_d),
        ] {
            table.push(
                Json::obj()
                    .field("app", app.name())
                    .field("system", system)
                    .field("text_bytes", t)
                    .field("data_bytes", d)
                    .build(),
            );
        }
        // Paper-shape checks: Chinchilla dwarfs TICS on both sections;
        // TICS .data is the smallest of the three.
        let app = app.name();
        let shape = [
            (chin_t > tics_t, "Chinchilla .text must exceed TICS"),
            (chin_d > 2 * tics_d, "Chinchilla .data must dwarf TICS"),
            (ink_d > tics_d, "InK .data must exceed TICS"),
        ];
        for (ok, claim) in shape {
            exp.check("paper shape", ok, || format!("{app}: {claim}"));
        }
    }
    println!(
        "\nShape (paper): Chinchilla > TICS on .text (~2x) and .data (>6x); \
         InK .data > TICS .data; TICS .text > InK .text."
    );
    exp.finish(&Json::Arr(table))
}
