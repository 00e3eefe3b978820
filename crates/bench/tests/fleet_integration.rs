//! Integration properties of the fleet engine: shard-geometry
//! invariance (the statistical contract `exp_fleet` advertises), the
//! journal round-trip that makes fleet sweeps resumable, and the
//! `--resume` path reusing shard rows instead of re-simulating.

use tics_apps::{App, SystemUnderTest};
use tics_bench::fleet::{run_shard, FleetSpec, ShardStats};
use tics_bench::sweep::cell_seed;
use tics_bench::{Cell, CellOutput, ClockKind, SupplySpec, Sweep, SweepArgs};
use tics_minic::opt::OptLevel;
use tics_vm::DispatchEngine;

fn small_spec(system: SystemUnderTest) -> FleetSpec {
    FleetSpec {
        app: App::Ar,
        system,
        opt: OptLevel::O2,
        clock: ClockKind::CapacitorRtc(60_000_000),
        supply: SupplySpec::DutyCycle {
            duty: 0.35,
            period_us: 20_000,
            jitter: 0.55,
        },
        scale: 6,
        time_budget_us: 5_000_000,
        guard_boots: 96,
        engine: DispatchEngine::Decoded,
        fleet_seed: 0xF1EE_7001,
    }
}

/// The contract the journal/resume machinery relies on: a device's fate
/// depends only on (fleet seed, device index), so one 40-device shard
/// equals two 20-device shards merged — counters, both histograms, and
/// offender totals all agree.
#[test]
fn shard_geometry_is_invisible_to_the_aggregate() {
    // MementOS violates on most devices, so this also exercises the
    // offender path (40 offenders stream through both reservoirs).
    let spec = small_spec(SystemUnderTest::Mementos);
    let full = run_shard(&spec, 0, 40).expect("full shard runs");
    let mut halves = run_shard(&spec, 0, 20).expect("first half runs");
    halves.merge(&run_shard(&spec, 20, 20).expect("second half runs"));

    assert_eq!(full.devices, 40);
    assert_eq!(full.devices, halves.devices);
    assert_eq!(full.finished, halves.finished);
    assert_eq!(full.out_of_energy, halves.out_of_energy);
    assert_eq!(full.budget_exhausted, halves.budget_exhausted);
    assert_eq!(full.livelocked, halves.livelocked);
    assert_eq!(full.errored, halves.errored);
    assert_eq!(full.violating_devices, halves.violating_devices);
    assert_eq!(full.violations, halves.violations);
    assert_eq!(full.recovered_devices, halves.recovered_devices);
    assert_eq!(full.power_failures, halves.power_failures);
    assert_eq!(full.checkpoints, halves.checkpoints);
    assert_eq!(full.instructions, halves.instructions);
    assert_eq!(full.cycles, halves.cycles);
    assert_eq!(
        full.reactive_us, halves.reactive_us,
        "reactive histograms diverge"
    );
    assert_eq!(
        full.overhead_permille, halves.overhead_permille,
        "overhead histograms diverge"
    );
    assert_eq!(full.offenders.seen(), halves.offenders.seen());
    assert!(full.violations > 0, "the workload must actually violate");
}

/// With few enough offenders to fit every reservoir, the sampled
/// exemplars themselves are shard-invariant (as the worst-K set).
#[test]
fn offender_exemplars_are_exact_below_reservoir_capacity() {
    let spec = small_spec(SystemUnderTest::Mementos);
    let full = run_shard(&spec, 0, 12).expect("runs");
    let mut halves = run_shard(&spec, 0, 6).expect("runs");
    halves.merge(&run_shard(&spec, 6, 6).expect("runs"));

    assert!(
        full.offenders.seen() <= tics_bench::fleet::RESERVOIR_K as u64,
        "pick a smaller range: sampling kicked in ({} offenders)",
        full.offenders.seen()
    );
    let sort = |s: &ShardStats| {
        let mut items = s.offenders.items().to_vec();
        items.sort_by_key(|e| e.device);
        items
    };
    assert_eq!(sort(&full), sort(&halves));
}

/// Device seeds are a pure function of fleet seed and device index —
/// the exact derivation `exp_fleet` journals, so a resumed sweep can
/// re-derive any exemplar's full coordinates.
#[test]
fn exemplar_seeds_reproduce_from_coordinates() {
    let spec = small_spec(SystemUnderTest::Mementos);
    let stats = run_shard(&spec, 0, 12).expect("runs");
    for exemplar in stats.offenders.items() {
        assert_eq!(
            exemplar.seed,
            cell_seed(spec.fleet_seed, exemplar.device),
            "device {} journaled a seed its coordinates cannot reproduce",
            exemplar.device
        );
    }
}

/// A shard aggregate survives the journal wire format: what `exp_fleet`
/// writes per shard row is exactly what its fold reads back.
#[test]
fn shard_aggregate_round_trips_through_journal_extra() {
    let spec = small_spec(SystemUnderTest::Tics);
    let stats = run_shard(&spec, 0, 15).expect("runs");
    assert_eq!(stats.devices, 15);
    let restored = ShardStats::from_extra(&stats.to_extra()).expect("parses back");
    assert_eq!(restored, stats);
}

/// `--resume` must reuse journaled shard rows (matching on the `shard`
/// column) instead of re-simulating: the second sweep's runner panics
/// if it is ever invoked.
#[test]
fn fleet_sweeps_resume_from_shard_rows() {
    let dir = std::env::temp_dir().join(format!(
        "tics_fleet_resume_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("fleet.jsonl");

    let cells = || {
        (0..2u64).map(|shard| {
            Cell::new(App::Ar, SystemUnderTest::PlainC)
                .clock(ClockKind::CapacitorRtc(60_000_000))
                .scale(6)
                .budget(5_000_000)
                .shard(shard)
                .param("first_device", i64::try_from(shard * 5).unwrap())
                .param("devices", 5i64)
                .param("fleet_seed", "0xf1ee7001")
        })
    };
    let args = |resume: bool| SweepArgs {
        threads: 1,
        journal: Some(journal.clone()),
        resume,
        ..SweepArgs::default()
    };

    let runner = |cell: &Cell| -> Result<CellOutput, String> {
        let spec = small_spec(cell.system);
        let first = u64::try_from(cell.param_i64("first_device")).unwrap();
        let count = u64::try_from(cell.param_i64("devices")).unwrap();
        let stats = run_shard(&spec, first, count)?;
        Ok(CellOutput {
            outcome: "finished".into(),
            cycles: stats.cycles,
            extra: stats.to_extra(),
            ..CellOutput::default()
        })
    };

    let mut sweep = Sweep::new("fleet").args(args(false)).quiet();
    for cell in cells() {
        sweep = sweep.cell(cell);
    }
    let first_run = sweep.run_with(runner);
    assert_eq!(first_run.summary.ok, 2);

    let mut resumed = Sweep::new("fleet").args(args(true)).quiet();
    for cell in cells() {
        resumed = resumed.cell(cell);
    }
    let second_run = resumed.run_with(|_cell: &Cell| -> Result<CellOutput, String> {
        panic!("resume must not re-simulate a journaled shard");
    });
    assert_eq!(
        second_run.summary.reused, 2,
        "both shard rows must be reused"
    );

    // The reused rows still rebuild their aggregates.
    for (first_row, second_row) in first_run.rows.iter().zip(&second_run.rows) {
        assert_eq!(first_row.shard, second_row.shard);
        let a = ShardStats::from_extra(&first_row.extra).expect("parses");
        let b = ShardStats::from_extra(&second_row.extra).expect("parses");
        assert_eq!(a, b);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
