//! The executor defers checkpoint requests inside an open peripheral
//! transaction: replay from a checkpoint taken there would re-drive wire
//! bytes under the same attempt number. A program requests one manual
//! checkpoint between `tx_begin` and `tx_commit` and one after
//! `tx_commit`. Every runtime with a transaction driver commits only the
//! second; MementOS, which has no driver, commits both.

use tics_repro::apps::build::{build_program, make_runtime};
use tics_repro::apps::SystemUnderTest;
use tics_repro::energy::ContinuousPower;
use tics_repro::minic::opt::OptLevel;
use tics_repro::vm::{Executor, Machine, MachineConfig};

const SRC: &str = "int main() { tx_begin(1); checkpoint(); tx_commit(1); checkpoint(); return 0; }";

/// Runs `SRC` under `system` on continuous power and returns its
/// committed checkpoints.
fn checkpoints(system: SystemUnderTest) -> u64 {
    let opt = system.toolchain_opt(OptLevel::O1);
    let prog = build_program(system, SRC, Ok((SRC, &[])), opt).expect("builds");
    let mut rt = make_runtime(system, &prog);
    assert_eq!(
        rt.tx_driver().is_some(),
        system != SystemUnderTest::Mementos,
        "{}: the driver split this test relies on",
        system.name()
    );
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let out = Executor::new()
        .run(&mut m, rt.as_mut(), &mut ContinuousPower::new())
        .expect("runs");
    assert_eq!(out.exit_code(), Some(0), "{}", system.name());
    m.stats().checkpoints
}

#[test]
fn checkpoint_requests_inside_a_transaction_are_deferred() {
    for system in [
        SystemUnderTest::Tics,
        SystemUnderTest::Ratchet,
        SystemUnderTest::Chinchilla,
        SystemUnderTest::Alpaca,
    ] {
        assert_eq!(
            checkpoints(system),
            1,
            "{}: only the request outside the transaction commits",
            system.name()
        );
    }
}

#[test]
fn without_a_driver_both_requests_commit() {
    assert_eq!(checkpoints(SystemUnderTest::Mementos), 2);
}
