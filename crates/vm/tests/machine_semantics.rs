//! Integration tests of machine semantics that unit tests inside the
//! crate do not reach: deadline-bounded atomic operations, the heap
//! allocator, frame linkage under deep nesting, and the event timeline.

use tics_energy::{ContinuousPower, RecordedTrace};
use tics_minic::{compile, opt::OptLevel};
use tics_vm::{BareRuntime, Executor, Machine, MachineConfig, RunOutcome};

fn machine(src: &str) -> Machine {
    let prog = compile(src, OptLevel::O2).unwrap();
    Machine::new(prog, MachineConfig::default()).unwrap()
}

#[test]
fn charge_atomic_reports_deadline_crossing() {
    let mut m = machine("int main() { return 0; }");
    m.set_period_deadline(m.cycles() + 100);
    assert!(m.charge_atomic(50), "within budget");
    assert!(!m.charge_atomic(500), "crosses the deadline");
    // The cycles are charged either way — the device spent the energy.
    assert!(m.cycles() >= 550);
}

#[test]
fn true_time_includes_off_periods() {
    let mut m = machine("int main() { return 0; }");
    m.mem.add_cycles(1_000);
    assert_eq!(m.true_now_us(), 1_000);
    m.power_failure(9_000);
    assert_eq!(m.true_now_us(), 10_000);
    m.mem.add_cycles(5);
    assert_eq!(m.true_now_us(), 10_005);
}

#[test]
fn heap_alloc_is_aligned_and_bounded() {
    let prog = compile("int main() { return 0; }", OptLevel::O2).unwrap();
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_bytes: 4 + 24,
            ..MachineConfig::default()
        },
    )
    .unwrap();
    let mut rt = BareRuntime::new();
    let a = m.heap_alloc(&mut rt, 5).unwrap(); // rounds to 8
    let b = m.heap_alloc(&mut rt, 1).unwrap(); // rounds to 4
    let c = m.heap_alloc(&mut rt, 12).unwrap();
    let d = m.heap_alloc(&mut rt, 1).unwrap(); // exhausted
    assert_ne!(a, 0);
    assert_eq!(b, a + 8);
    assert_eq!(c, b + 4);
    assert_eq!(d, 0, "exhaustion returns null");
    assert_eq!(a % 4, 0);
}

#[test]
fn zero_heap_always_returns_null() {
    let prog = compile("int main() { return alloc(4); }", OptLevel::O2).unwrap();
    let mut m = Machine::new(
        prog,
        MachineConfig {
            heap_bytes: 0,
            ..MachineConfig::default()
        },
    )
    .unwrap();
    let mut rt = BareRuntime::new();
    let out = Executor::new()
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .unwrap();
    assert_eq!(out.exit_code(), Some(0));
}

#[test]
fn deep_call_chains_link_and_unwind() {
    // 12 distinct nesting levels, each adding its depth.
    let mut src = String::new();
    src.push_str("int f0(int x) { return x + 1; }\n");
    for i in 1..12 {
        src.push_str(&format!(
            "int f{i}(int x) {{ return f{}(x) + 1; }}\n",
            i - 1
        ));
    }
    src.push_str("int main() { return f11(0); }");
    let mut m = machine(&src);
    let mut rt = BareRuntime::new();
    let out = Executor::new()
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .unwrap();
    assert_eq!(out.exit_code(), Some(12));
}

#[test]
fn event_timeline_orders_marks_sends_and_failures() {
    let mut m = machine(
        "nv int phase;
         int main() {
             if (phase == 0) {
                 mark(1);
                 phase = 1;
                 while (1) { }
             }
             send(42);
             return 0;
         }",
    );
    let mut rt = BareRuntime::new();
    let mut supply = RecordedTrace::new([(2_000, 3_000), (1_000_000, 0)]);
    let out = Executor::new().run(&mut m, &mut rt, &mut supply).unwrap();
    assert_eq!(out, RunOutcome::Finished(0));
    let s = m.stats();
    let t_mark = s.marks_timed[0].1;
    let t_fail = s.failure_times[0];
    let (v, t_send) = s.sends_timed[0];
    assert_eq!(v, 42);
    assert!(t_mark < t_fail, "mark precedes the failure");
    assert!(t_fail < t_send, "send happens after reboot");
    assert!(t_send >= 5_000, "send sits past the 3 ms outage");
}

#[test]
fn swap_and_ternary_chains_evaluate_correctly() {
    let mut m = machine(
        "int main() {
             int a = 3;
             int b = 9;
             // force Swap-backed sequences via mixed compound targets
             a += b > 5 ? b : -b;
             b -= a < 20 ? 1 : 2;
             return a * 100 + b;
         }",
    );
    let mut rt = BareRuntime::new();
    let out = Executor::new()
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .unwrap();
    assert_eq!(out.exit_code(), Some(12 * 100 + 8));
}
