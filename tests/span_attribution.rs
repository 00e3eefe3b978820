//! The span-total identity, end to end: every cycle the machine charges
//! is attributed to exactly one span kind, so the per-span totals must
//! sum back to the machine's cycle counter — for every runtime, on both
//! continuous and failing power.

use tics_bench::sweep::{default_runner, Cell, CellOutput, SupplySpec};
use tics_repro::apps::{App, SystemUnderTest};
use tics_trace::SpanKind;

const PERIODIC: SupplySpec = SupplySpec::Periodic {
    on_us: 100_000,
    off_us: 5_000,
};

fn run(app: App, system: SystemUnderTest, supply: SupplySpec) -> Result<CellOutput, String> {
    let mut cell = Cell::new(app, system)
        .supply(supply)
        .scale(8)
        .budget(2_000_000_000);
    cell.seed = 0x5EED;
    default_runner(&cell)
}

fn check(app: App, system: SystemUnderTest, supply: SupplySpec) {
    let Ok(r) = run(app, system, supply) else {
        // Infeasible app × system combinations (the paper's red
        // crosses) have nothing to attribute.
        return;
    };
    let total: u64 = r.spans.iter().sum();
    assert_eq!(
        total,
        r.cycles,
        "span-total identity violated: {} under {} ({})",
        app.name(),
        system.name(),
        r.outcome
    );
}

#[test]
fn span_totals_equal_cycles_for_every_system() {
    for app in [App::Ar, App::Bc, App::Cuckoo] {
        for system in SystemUnderTest::ALL {
            check(app, system, SupplySpec::Continuous);
            check(app, system, PERIODIC);
        }
    }
}

#[test]
fn tics_attributes_runtime_work_outside_the_app_span() {
    let r = run(App::Bc, SystemUnderTest::Tics, PERIODIC).expect("BC builds under TICS");
    let spans = r.spans;
    assert!(spans[SpanKind::App.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::Checkpoint.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::Restore.index()] > 0, "{spans:?}");
    assert!(spans[SpanKind::UndoLog.index()] > 0, "{spans:?}");
    // App work must dominate runtime bookkeeping on this benchmark.
    let runtime: u64 = SpanKind::ALL
        .iter()
        .filter(|k| k.is_runtime())
        .map(|k| spans[k.index()])
        .sum();
    assert!(runtime > 0 && runtime < r.cycles, "{spans:?}");
}

#[test]
fn plain_c_charges_everything_to_the_app() {
    let r = run(App::Bc, SystemUnderTest::PlainC, SupplySpec::Continuous).expect("plain C builds");
    assert_eq!(r.spans[SpanKind::App.index()], r.cycles);
    for k in SpanKind::ALL.iter().filter(|k| k.is_runtime()) {
        assert_eq!(r.spans[k.index()], 0, "{k:?}");
    }
}
