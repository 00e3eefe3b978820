//! Integration tests of the sweep engine: thread-count invariance of
//! the journal, panic isolation, and journal round-trips through disk.

use std::path::PathBuf;

use tics_apps::{App, SystemUnderTest};
use tics_bench::journal::{self, CellStatus};
use tics_bench::sweep::{Cell, CellOutput, SupplySpec, Sweep, SweepArgs};
use tics_bench::ClockKind;
use tics_minic::opt::OptLevel;

/// A per-test scratch journal path (removed on drop).
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        TempJournal(
            std::env::temp_dir().join(format!("tics-sweep-{}-{tag}.jsonl", std::process::id())),
        )
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn args(threads: usize, journal: &TempJournal) -> SweepArgs {
    SweepArgs {
        threads,
        journal: Some(journal.0.clone()),
        ..SweepArgs::default()
    }
}

/// A 12-cell grid spanning TICS plus two baseline systems, two apps,
/// and two supplies — the representative end-to-end sweep.
fn twelve_cell_sweep(exp: &str) -> Sweep {
    Sweep::new(exp)
        .seed(0xBEEF)
        .grid(
            &[App::Ar, App::Bc],
            &[
                SystemUnderTest::Tics,
                SystemUnderTest::Mementos,
                SystemUnderTest::Ink,
            ],
            &[OptLevel::O2],
            &[ClockKind::Perfect],
            &[
                SupplySpec::Continuous,
                SupplySpec::Periodic {
                    on_us: 20_000,
                    off_us: 1_000,
                },
            ],
            &[6],
        )
        .quiet()
}

/// Multi-threaded execution yields byte-identical journal rows to a
/// single-threaded run, modulo row order (already fixed by the engine)
/// and the wall-time/thread provenance fields.
#[test]
fn journal_is_thread_count_invariant() {
    let j1 = TempJournal::new("t1");
    let j4 = TempJournal::new("t4");
    let one = twelve_cell_sweep("inv").args(args(1, &j1)).run();
    let four = twelve_cell_sweep("inv").args(args(4, &j4)).run();

    assert_eq!(one.rows.len(), 12);
    assert_eq!(four.rows.len(), 12);
    assert!(one.rows.iter().any(|r| r.system == "TICS"));
    assert!(one.rows.iter().any(|r| r.system == "MementOS"));
    assert!(one.rows.iter().any(|r| r.system == "InK"));
    for (a, b) in one.rows.iter().zip(&four.rows) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
    // The equality also holds through the on-disk journals.
    let from_disk_1 = journal::read(&j1.0).expect("journal 1 reads");
    let from_disk_4 = journal::read(&j4.0).expect("journal 4 reads");
    for (a, b) in from_disk_1.iter().zip(&from_disk_4) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}

/// Each cell's seed derives from (sweep seed, cell index) only, so two
/// identical grids get identical seeds and a different sweep seed
/// changes them.
#[test]
fn cell_seeds_follow_sweep_seed() {
    let ja = TempJournal::new("seed-a");
    let jb = TempJournal::new("seed-b");
    let a = twelve_cell_sweep("seed").args(args(2, &ja)).run();
    let b = twelve_cell_sweep("seed")
        .seed(0xFEED)
        .args(args(2, &jb))
        .run();
    assert!(a.rows.iter().zip(&b.rows).any(|(x, y)| x.seed != y.seed));
}

/// A panicking cell is journaled as `panicked` while its siblings run
/// to completion — one bad cell cannot take down a sweep.
#[test]
fn panicking_cell_is_isolated() {
    let j = TempJournal::new("panic");
    let mut sweep = Sweep::new("panic").args(args(3, &j)).quiet();
    for i in 0..6i64 {
        sweep = sweep.cell(Cell::new(App::Bc, SystemUnderTest::Tics).param("i", i));
    }
    let outcome = sweep.run_with(|cell| {
        if cell.param_i64("i") == 2 {
            panic!("cell 2 exploded");
        }
        Ok(CellOutput {
            outcome: "fine".to_string(),
            cycles: 10,
            ..CellOutput::default()
        })
    });
    assert_eq!(outcome.rows.len(), 6);
    assert_eq!(outcome.summary.panicked, 1);
    assert_eq!(outcome.summary.ok, 5);
    let bad = &outcome.rows[2];
    assert_eq!(bad.status, CellStatus::Panicked);
    assert!(bad.outcome.contains("cell 2 exploded"), "{}", bad.outcome);
    for (i, row) in outcome.rows.iter().enumerate() {
        if i != 2 {
            assert_eq!(row.status, CellStatus::Ok, "sibling {i} must complete");
        }
    }
    // The journaled form agrees, including the panic row.
    let from_disk = journal::read(&j.0).expect("journal reads");
    assert_eq!(from_disk.len(), 6);
    assert_eq!(from_disk[2].status, CellStatus::Panicked);
}

/// A runner error journals as `build-error` without stopping siblings
/// (the Figure 9 "red cross" cells).
#[test]
fn failing_cell_is_isolated() {
    let j = TempJournal::new("fail");
    let mut sweep = Sweep::new("fail").args(args(2, &j)).quiet();
    for i in 0..4i64 {
        sweep = sweep.cell(Cell::new(App::Ar, SystemUnderTest::Tics).param("i", i));
    }
    let outcome = sweep.run_with(|cell| {
        if cell.param_i64("i") % 2 == 0 {
            Err("infeasible".to_string())
        } else {
            Ok(CellOutput::default())
        }
    });
    assert_eq!(outcome.summary.failed, 2);
    assert_eq!(outcome.summary.ok, 2);
    assert_eq!(outcome.rows[0].status, CellStatus::BuildError);
    assert_eq!(outcome.rows[0].outcome, "infeasible");
}

/// Journal rows survive a serialize → write → read → parse round trip
/// exactly, including floats, metrics, and provenance fields.
#[test]
fn journal_round_trips_through_disk() {
    let j = TempJournal::new("rt");
    let mut sweep = Sweep::new("rt").args(args(2, &j)).quiet();
    for i in 0..5i64 {
        sweep = sweep.cell(
            Cell::new(App::Cuckoo, SystemUnderTest::Tics)
                .opt(OptLevel::O1)
                .clock(ClockKind::CapacitorRtc(1_000_000))
                .supply(SupplySpec::rf_default())
                .scale(7)
                .param("i", i),
        );
    }
    let outcome = sweep.run_with(|cell| {
        Ok(CellOutput {
            outcome: "done".to_string(),
            exit_code: Some(0),
            cycles: 1234,
            checkpoints: 5,
            ..CellOutput::default()
        }
        .with("ratio", 0.125 + cell.param_i64("i") as f64)
        .with("label", format!("cell-{}", cell.param_i64("i")))
        .with("flag", true))
    });
    let from_disk = journal::read(&j.0).expect("journal reads");
    assert_eq!(from_disk, outcome.rows);
}

/// A cell that blows the wall-clock watchdog is journaled as `timeout`
/// while its siblings complete normally — a runaway simulation cannot
/// stall the sweep.
#[test]
fn watchdog_journals_runaway_cells_as_timeout() {
    let j = TempJournal::new("watchdog");
    let mut sweep = Sweep::new("watchdog")
        .args(SweepArgs {
            cell_timeout_ms: Some(100),
            ..args(2, &j)
        })
        .quiet();
    for i in 0..5i64 {
        sweep = sweep.cell(Cell::new(App::Bc, SystemUnderTest::Tics).param("i", i));
    }
    let outcome = sweep.run_with(|cell| {
        if cell.param_i64("i") == 3 {
            std::thread::sleep(std::time::Duration::from_millis(600));
        }
        Ok(CellOutput {
            outcome: "fine".to_string(),
            cycles: 1,
            ..CellOutput::default()
        })
    });
    assert_eq!(outcome.summary.timed_out, 1);
    assert_eq!(outcome.summary.ok, 4);
    assert_eq!(outcome.rows[3].status, CellStatus::Timeout);
    assert!(
        outcome.rows[3].outcome.contains("100 ms wall-clock budget"),
        "{}",
        outcome.rows[3].outcome
    );
    // The timeout row survives the journal round trip.
    let from_disk = journal::read(&j.0).expect("journal reads");
    assert_eq!(from_disk[3].status, CellStatus::Timeout);
}

/// `--resume` against a truncated journal re-runs only the missing
/// cells and reproduces the uninterrupted journal byte-for-byte in its
/// deterministic view.
#[test]
fn resume_completes_an_interrupted_sweep_without_rerunning() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let j = TempJournal::new("resume");
    let full = twelve_cell_sweep("resume").args(args(2, &j)).run();
    assert_eq!(full.rows.len(), 12);

    // Simulate an interrupted sweep: keep only the first 7 journal rows.
    let text = std::fs::read_to_string(&j.0).expect("journal text");
    let truncated: String = text.lines().take(7).map(|l| format!("{l}\n")).collect();
    std::fs::write(&j.0, truncated).expect("truncate journal");

    // Resume with an instrumented runner: only the 5 missing cells may
    // execute, and the merged journal must match the uninterrupted one.
    let ran = AtomicUsize::new(0);
    let resumed = twelve_cell_sweep("resume")
        .args(SweepArgs {
            resume: true,
            ..args(3, &j)
        })
        .run_with(|cell| {
            ran.fetch_add(1, Ordering::SeqCst);
            tics_bench::sweep::default_runner(cell)
        });
    assert_eq!(ran.load(Ordering::SeqCst), 5, "only missing cells re-run");
    assert_eq!(resumed.summary.reused, 7);
    assert_eq!(resumed.rows.len(), 12);
    for (a, b) in full.rows.iter().zip(&resumed.rows) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
    let from_disk = journal::read(&j.0).expect("journal reads");
    assert_eq!(from_disk.len(), 12);
    for (a, b) in full.rows.iter().zip(&from_disk) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
}

/// A sweep killed mid-row leaves a partial last line. `--resume` reuses
/// the whole rows before it and re-runs the rest, instead of discarding
/// the journal.
#[test]
fn resume_reuses_the_rows_before_a_row_cut_in_half() {
    let j = TempJournal::new("resume-cut");
    let full = twelve_cell_sweep("resume-cut").args(args(2, &j)).run();
    assert_eq!(full.rows.len(), 12);

    // Keep rows 1-7 whole and the first half of row 8.
    let text = std::fs::read_to_string(&j.0).expect("journal text");
    let lines: Vec<&str> = text.lines().collect();
    let mut cut: String = lines[..7].iter().map(|l| format!("{l}\n")).collect();
    cut.push_str(&lines[7][..lines[7].len() / 2]);
    std::fs::write(&j.0, cut).expect("cut journal");
    assert!(journal::read(&j.0).is_err(), "the cut row is malformed");

    let resumed = twelve_cell_sweep("resume-cut")
        .args(SweepArgs {
            resume: true,
            ..args(2, &j)
        })
        .run();
    assert_eq!(resumed.summary.reused, 7);
    for (a, b) in full.rows.iter().zip(&resumed.rows) {
        assert_eq!(a.deterministic_view(), b.deterministic_view());
    }
    assert_eq!(journal::read(&j.0).expect("journal reads").len(), 12);
}

/// A `timeout` row is exactly what a resume exists to retry: the prior
/// attempt died on the wall-clock watchdog, so `--resume` must re-run
/// that cell instead of stitching the dead row back in.
#[test]
fn resume_retries_timeout_rows_instead_of_reusing_them() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let j = TempJournal::new("resume-timeout");
    let build = |a: SweepArgs| {
        let mut sweep = Sweep::new("resume-timeout").args(a).quiet();
        for i in 0..5i64 {
            sweep = sweep.cell(Cell::new(App::Bc, SystemUnderTest::Tics).param("i", i));
        }
        sweep
    };

    // First pass: cell 3 blows its 100 ms wall-clock budget.
    let first = build(SweepArgs {
        cell_timeout_ms: Some(100),
        ..args(2, &j)
    })
    .run_with(|cell| {
        if cell.param_i64("i") == 3 {
            std::thread::sleep(std::time::Duration::from_millis(600));
        }
        Ok(CellOutput {
            outcome: "fine".to_string(),
            cycles: 1,
            ..CellOutput::default()
        })
    });
    assert_eq!(first.summary.timed_out, 1);
    assert_eq!(first.rows[3].status, CellStatus::Timeout);

    // Resume without the stall: only the timed-out cell may execute.
    let ran = AtomicUsize::new(0);
    let resumed = build(SweepArgs {
        resume: true,
        ..args(2, &j)
    })
    .run_with(|_| {
        ran.fetch_add(1, Ordering::SeqCst);
        Ok(CellOutput {
            outcome: "fine".to_string(),
            cycles: 1,
            ..CellOutput::default()
        })
    });
    assert_eq!(
        ran.load(Ordering::SeqCst),
        1,
        "only the timed-out cell re-runs"
    );
    assert_eq!(resumed.summary.reused, 4);
    assert_eq!(resumed.rows[3].status, CellStatus::Ok);
    let from_disk = journal::read(&j.0).expect("journal reads");
    assert_eq!(from_disk[3].status, CellStatus::Ok);
}

/// Resuming against a journal from a *different* grid or seed reuses
/// nothing — coordinate mismatches degrade to a full re-run instead of
/// stitching stale results.
#[test]
fn resume_rejects_rows_from_a_different_sweep() {
    let j = TempJournal::new("resume-mismatch");
    let _ = twelve_cell_sweep("mismatch").args(args(2, &j)).run();
    let resumed = twelve_cell_sweep("mismatch")
        .seed(0xD1FF) // different sweep seed → different derived cell seeds
        .args(SweepArgs {
            resume: true,
            ..args(2, &j)
        })
        .run();
    assert_eq!(resumed.summary.reused, 0);
    assert_eq!(resumed.rows.len(), 12);
}

/// The summary accounts for every cell and estimates the speedup from
/// the per-cell wall-times.
#[test]
fn summary_accounts_for_all_cells() {
    let j = TempJournal::new("sum");
    let mut sweep = Sweep::new("sum").args(args(4, &j)).quiet();
    for i in 0..8i64 {
        sweep = sweep.cell(Cell::new(App::Bc, SystemUnderTest::Tics).param("i", i));
    }
    let outcome = sweep.run_with(|_| {
        Ok(CellOutput {
            cycles: 100,
            ..CellOutput::default()
        })
    });
    let s = &outcome.summary;
    assert_eq!(s.cells, 8);
    assert_eq!(s.ok + s.failed + s.panicked, 8);
    assert_eq!(s.total_cycles, 800);
    assert!(s.wall_s >= 0.0 && s.cell_wall_s >= 0.0);
    assert!(s.speedup_vs_one_thread() > 0.0);
    let text = s.to_string();
    assert!(text.contains("8 cells"), "{text}");
    assert!(text.contains("vs 1 thread"), "{text}");
}
