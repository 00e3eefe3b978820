//! Figure 10 — the user-study proxy.
//!
//! The 90-participant study cannot be reproduced without humans; per
//! DESIGN.md, this experiment reports (a) static complexity metrics of
//! the same program pairs and (b) a seeded synthetic-reviewer cohort
//! whose difficulty grows with those metrics. The paper's finding — the
//! TICS form is easier: higher bug-finding accuracy, lower search time —
//! is checked as the output shape. Each program pair is one sweep cell;
//! `results/fig10.jsonl` keeps the per-cohort evidence.

use tics_apps::study;
use tics_apps::{App, SystemUnderTest};
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::JournalRow;
use tics_bench::reviewer::review;
use tics_bench::sweep::{Cell, CellOutput};
use tics_bench::Json;

const COHORT: u32 = 90;
const SEED: u64 = 0x000F_1610;

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("fig10", &SWEEP);
    println!("Figure 10 (proxy): bug localization, TICS style vs InK style");
    println!("(cohort of {COHORT} seeded synthetic reviewers — see DESIGN.md)\n");

    let programs = study::all_programs();
    let mut sweep = exp.sweep().seed(SEED);
    for (i, _) in programs.iter().enumerate() {
        sweep = sweep.cell(Cell::new(App::Ar, SystemUnderTest::Tics).param("prog_index", i));
    }
    let programs_ref = &programs;
    let outcome = exp.run(sweep, move |cell| {
        let i = usize::try_from(cell.param_i64("prog_index")).expect("index");
        let p = &programs_ref[i];
        let o = review(p, COHORT, SEED);
        let c = study::complexity(&p.buggy);
        Ok(CellOutput {
            outcome: "reviewed".to_string(),
            ..CellOutput::default()
        }
        .with("program", o.program.as_str())
        .with("style", o.style.as_str())
        .with("loc", c.loc)
        .with("branches", c.branches)
        .with("functions", c.functions)
        .with("globals", c.globals)
        .with("complexity", o.complexity_score)
        .with("accuracy_pct", o.accuracy * 100.0)
        .with("mean_time", o.mean_time))
    });

    println!(
        "{:<12} {:<5} {:>5} {:>5} {:>5} {:>5} {:>7} {:>9} {:>9}",
        "program", "style", "loc", "brch", "fns", "glob", "score", "correct%", "time"
    );
    let mut table = Vec::new();
    for row in &outcome.rows {
        let s = |k: &str| {
            row.metric(k)
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let f = |k: &str| row.metric_f64(k).unwrap_or(0.0);
        let u = |k: &str| row.metric_u64(k).unwrap_or(0);
        println!(
            "{:<12} {:<5} {:>5} {:>5} {:>5} {:>5} {:>7.0} {:>8.1}% {:>9.1}",
            s("program"),
            s("style"),
            u("loc"),
            u("branches"),
            u("functions"),
            u("globals"),
            f("complexity"),
            f("accuracy_pct"),
            f("mean_time")
        );
        table.push(
            Json::obj()
                .field("program", s("program"))
                .field("style", s("style"))
                .field("loc", u("loc"))
                .field("branches", u("branches"))
                .field("functions", u("functions"))
                .field("globals", u("globals"))
                .field("complexity", f("complexity"))
                .field("accuracy_pct", f("accuracy_pct"))
                .field("mean_time", f("mean_time"))
                .build(),
        );
    }
    println!();
    let find = |name: &str, style: &str| -> &JournalRow {
        outcome
            .rows
            .iter()
            .find(|r| {
                r.metric("program").and_then(Json::as_str) == Some(name)
                    && r.metric("style").and_then(Json::as_str) == Some(style)
            })
            .expect("row exists")
    };
    for name in ["swap", "bubble", "timekeeping"] {
        let tics = find(name, "tics");
        let ink = find(name, "ink");
        let (t_acc, t_time) = (
            tics.metric_f64("accuracy_pct").unwrap_or(0.0),
            tics.metric_f64("mean_time").unwrap_or(0.0),
        );
        let (i_acc, i_time) = (
            ink.metric_f64("accuracy_pct").unwrap_or(0.0),
            ink.metric_f64("mean_time").unwrap_or(f64::MAX),
        );
        exp.check("paper shape", t_acc > i_acc && t_time < i_time, || {
            format!("{name}: the proxy must reproduce the Figure 10 direction")
        });
        println!("{name}: TICS {t_acc:.0}% in {t_time:.0}s vs InK {i_acc:.0}% in {i_time:.0}s");
    }
    exp.finish(&Json::Arr(table))
}
