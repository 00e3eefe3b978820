//! Table 2 — time-consistency violations for the AR application.
//!
//! Both variants run on RF-harvested power (Powercast-style transmitter,
//! 10 µF storage capacitor with fading-induced irregular off-times):
//!
//! * **w/o TICS** — the plain AR with manual time handling, MementOS-like
//!   checkpoints, and the volatile device clock (what legacy code gets),
//! * **w/ TICS** — the annotated AR under the TICS runtime with a
//!   persistent timekeeper.
//!
//! Where the paper reports one testbed run per variant, this sweep runs
//! each variant under several independently-seeded RF fading traces and
//! reports per-seed rows plus the aggregate — the many-seed form the
//! sweep engine makes cheap. The oracle (`tics_bench::oracle`) counts
//! timely-branching, misalignment, and data-expiration violations from
//! the ground-truth event timeline — the paper's Table 2.

use tics_apps::build::make_runtime;
use tics_apps::{build_app, App, SystemUnderTest};
use tics_baselines::NaiveCheckpoint;
use tics_bench::experiment::{Experiment, SWEEP};
use tics_bench::journal::JournalRow;
use tics_bench::sweep::{Cell, CellOutput, SupplySpec};
use tics_bench::{count_violations, ClockKind, Json};
use tics_minic::opt::OptLevel;
use tics_vm::{Executor, IntermittentRuntime};

const WINDOWS: u32 = 200;
const TIME_BUDGET_US: u64 = 4_000_000_000;
/// Independently-seeded RF traces per variant.
const SEEDS_PER_VARIANT: usize = 6;

fn run_variant(cell: &Cell) -> Result<CellOutput, String> {
    let with_tics = cell.system == SystemUnderTest::Tics;
    let prog = build_app(
        cell.app,
        cell.system,
        cell.opt,
        tics_apps::build::Scale(cell.scale),
    )
    .map_err(|e| e.to_string())?;
    let mut machine = cell.machine(&prog).expect("program loads");
    let mut runtime: Box<dyn IntermittentRuntime> = if with_tics {
        make_runtime(cell.system, &prog)
    } else {
        // Aggressive probing: checkpoints land inside windows, which is
        // exactly what creates the Figure 3 violations on restore.
        Box::new(NaiveCheckpoint::new(500))
    };
    let mut supply = cell.supply.build(cell.seed);
    let _ = Executor::new()
        .with_time_budget(cell.time_budget_us)
        .run(&mut machine, runtime.as_mut(), supply.as_mut())
        .expect("run completes");
    let v = count_violations(machine.trace().records(), with_tics);
    let stats = machine.stats();
    Ok(CellOutput {
        outcome: "window-elapsed".to_string(),
        exit_code: None,
        cycles: machine.cycles(),
        checkpoints: stats.checkpoints,
        restores: stats.restores,
        power_failures: stats.power_failures,
        undo_appends: stats.undo_log_appends,
        text_bytes: prog.text_bytes(),
        data_bytes: prog.data_bytes(),
        spans: machine.mem.span_cycles_all(),
        extra: Vec::new(),
    }
    .with("potential_windows", v.potential_windows)
    .with("potential_timely", v.potential_timely)
    .with("timely_branch", v.timely_branch)
    .with("misalignment", v.misalignment)
    .with("expiration", v.expiration))
}

fn variant_cells(label: &str, system: SystemUnderTest, clock: ClockKind) -> Vec<Cell> {
    (0..SEEDS_PER_VARIANT)
        .map(|rep| {
            Cell::new(App::Ar, system)
                .opt(OptLevel::O2)
                .clock(clock)
                .supply(SupplySpec::rf_default())
                .scale(WINDOWS)
                .budget(TIME_BUDGET_US)
                .param("variant", label)
                .param("rep", rep)
        })
        .collect()
}

struct VariantFold {
    label: String,
    windows: u64,
    timely_pts: u64,
    timely: u64,
    misalign: u64,
    expire: u64,
    rows: usize,
}

fn fold(rows: &[JournalRow], label: &str) -> VariantFold {
    let mine: Vec<&JournalRow> = rows
        .iter()
        .filter(|r| r.metric("variant").and_then(Json::as_str) == Some(label))
        .collect();
    let sum = |k: &str| mine.iter().filter_map(|r| r.metric_u64(k)).sum::<u64>();
    VariantFold {
        label: label.to_string(),
        windows: sum("potential_windows"),
        timely_pts: sum("potential_timely"),
        timely: sum("timely_branch"),
        misalign: sum("misalignment"),
        expire: sum("expiration"),
        rows: mine.len(),
    }
}

fn main() -> std::process::ExitCode {
    let mut exp = Experiment::from_env("table2", &SWEEP);
    println!(
        "Table 2: AR time-consistency violations on RF-harvested power\n\
         ({SEEDS_PER_VARIANT} seeded RF traces per variant; counts summed across traces)\n"
    );

    let mut sweep = exp.sweep().seed(42);
    for c in variant_cells("w/o TICS", SystemUnderTest::Mementos, ClockKind::Volatile) {
        sweep = sweep.cell(c);
    }
    for c in variant_cells(
        "w/ TICS",
        SystemUnderTest::Tics,
        // Persistent timekeeping is mandatory for time annotations (§4).
        ClockKind::CapacitorRtc(60_000_000),
    ) {
        sweep = sweep.cell(c);
    }
    let outcome = exp.run(sweep, run_variant);

    println!(
        "{:<22} {:>10} {:>10} | {:>8} {:>8} {:>8}",
        "variant", "windows", "timely pts", "timely", "misalign", "expire"
    );
    let mut table = Vec::new();
    for label in ["w/o TICS", "w/ TICS"] {
        let f = fold(&outcome.rows, label);
        exp.check("journal rows", f.rows == SEEDS_PER_VARIANT, || {
            format!("{label}: {} of {SEEDS_PER_VARIANT} rows journaled", f.rows)
        });
        println!(
            "{:<22} {:>10} {:>10} | {:>8} {:>8} {:>8}",
            f.label, f.windows, f.timely_pts, f.timely, f.misalign, f.expire
        );
        table.push(f);
    }
    println!();
    let baseline = &table[0];
    let tics = &table[1];
    if baseline.timely + baseline.misalign + baseline.expire == 0 {
        println!("!! unexpected: no violations without TICS");
    }
    if tics.timely + tics.misalign + tics.expire != 0 {
        println!("!! unexpected: TICS produced violations");
    } else {
        println!("TICS eliminated all three violation classes (paper: 32/78/173 -> 0/0/0).");
    }
    let json = Json::Arr(
        table
            .iter()
            .map(|f| {
                Json::obj()
                    .field("variant", f.label.as_str())
                    .field("potential_windows", f.windows)
                    .field("potential_timely", f.timely_pts)
                    .field("timely_branch", f.timely)
                    .field("misalignment", f.misalign)
                    .field("expiration", f.expire)
                    .field("traces", f.rows)
                    .build()
            })
            .collect(),
    );
    exp.finish(&json)
}
