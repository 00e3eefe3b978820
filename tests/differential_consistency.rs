//! Differential testing: a deterministic program must compute the same
//! result under brutal intermittent power as on continuous power, for
//! every consistency-preserving runtime. This is the strongest
//! end-to-end statement of the paper's correctness claims.

use tics_repro::baselines::{NaiveCheckpoint, RatchetRuntime};
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{ContinuousPower, DutyCycleTrace, PeriodicTrace};
use tics_repro::mcu::splitmix64;
use tics_repro::minic::{compile, opt::OptLevel, passes, Program};
use tics_repro::vm::{Executor, IntermittentRuntime, Machine, MachineConfig};

/// Deterministic programs (no sensors, no clock reads) exercising
/// pointers, recursion, arrays, globals, and deep expressions.
const CORPUS: &[(&str, &str)] = &[
    (
        "war_counter",
        "int len;
         int main() {
             for (int i = 0; i < 500; i++) { len = len + 1; }
             return len;
         }",
    ),
    (
        "pointer_matrix",
        "int m[36];
         int main() {
             int *p = m;
             for (int r = 0; r < 6; r++) {
                 for (int c = 0; c < 6; c++) { *(p + r * 6 + c) = r * 10 + c; }
             }
             int trace = 0;
             for (int i = 0; i < 6; i++) { trace += m[i * 6 + i]; }
             return trace;
         }",
    ),
    (
        "recursive_sum",
        "int sum(int n) { if (n == 0) return 0; return n + sum(n - 1); }
         int main() { return sum(60); }",
    ),
    (
        "string_hash",
        "int data[32];
         int main() {
             for (int i = 0; i < 32; i++) { data[i] = (i * 37 + 11) & 255; }
             int h = 5381;
             for (int i = 0; i < 32; i++) { h = ((h << 5) + h + data[i]) & 0xFFFFFF; }
             return h;
         }",
    ),
    (
        "double_indirect",
        "int cell;
         int main() {
             int *p = &cell;
             int **pp = &p;
             for (int i = 0; i < 100; i++) { **pp = **pp + 2; }
             return cell;
         }",
    ),
    (
        "sort_and_search",
        "int a[24];
         int main() {
             for (int i = 0; i < 24; i++) { a[i] = (i * 61) % 24; }
             for (int i = 0; i < 23; i++) {
                 for (int j = 0; j < 23 - i; j++) {
                     if (a[j] > a[j + 1]) {
                         int t = a[j];
                         a[j] = a[j + 1];
                         a[j + 1] = t;
                     }
                 }
             }
             int ok = 1;
             for (int i = 0; i < 24; i++) { if (a[i] != i) { ok = 0; } }
             return ok * 1000 + a[12];
         }",
    ),
];

fn tics_program(src: &str) -> Program {
    let mut p = compile(src, OptLevel::O2).expect("compiles");
    passes::instrument_tics(&mut p).expect("instruments");
    p
}

fn run(prog: Program, rt: &mut dyn IntermittentRuntime, supply_kind: Option<(u64, u64)>) -> i32 {
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let exec = Executor::new().with_time_budget(20_000_000_000);
    let out = match supply_kind {
        None => exec.run(&mut m, rt, &mut ContinuousPower::new()),
        Some((on, off)) => exec.run(&mut m, rt, &mut PeriodicTrace::new(on, off)),
    }
    .expect("no traps");
    out.exit_code()
        .unwrap_or_else(|| panic!("did not finish: {:?}", m))
}

#[test]
fn tics_matches_continuous_for_entire_corpus() {
    for (name, src) in CORPUS {
        let expected = run(
            tics_program(src),
            &mut TicsRuntime::new(TicsConfig::s2()),
            None,
        );
        // On-periods must exceed the progress floor: restore + timer
        // interval + checkpoint commit (~3.9 ms with a 2.5 ms timer).
        // Below it the correct outcome is starvation, tested elsewhere.
        for (on, off) in [(5_000, 500), (7_000, 2_000), (15_000, 30_000)] {
            let got = run(
                tics_program(src),
                &mut TicsRuntime::new(TicsConfig::s2().with_timer(Some(2_500))),
                Some((on, off)),
            );
            assert_eq!(got, expected, "{name} diverged at on={on} off={off}");
        }
    }
}

#[test]
fn naive_checkpointing_matches_continuous_for_corpus() {
    for (name, src) in CORPUS {
        let build = || {
            let mut p = compile(src, OptLevel::O2).expect("compiles");
            passes::instrument_mementos(&mut p).expect("instruments");
            p
        };
        let expected = run(build(), &mut NaiveCheckpoint::new(1_000), None);
        let got = run(
            build(),
            &mut NaiveCheckpoint::new(1_000),
            Some((20_000, 500)),
        );
        assert_eq!(got, expected, "{name} diverged under naive checkpointing");
    }
}

#[test]
fn ratchet_matches_continuous_for_corpus() {
    for (name, src) in CORPUS {
        let build = || {
            let mut p = compile(src, OptLevel::O2).expect("compiles");
            passes::instrument_ratchet(&mut p).expect("instruments");
            p
        };
        let expected = run(build(), &mut RatchetRuntime::default(), None);
        let got = run(build(), &mut RatchetRuntime::default(), Some((10_000, 500)));
        assert_eq!(got, expected, "{name} diverged under ratchet");
    }
}

/// Power-failure storms with seeded-random duty cycles, periods, and
/// trace seeds never change a TICS program's result. 24 deterministic
/// cases drawn from a splitmix64 stream stand in for the fuzzing crate.
#[test]
fn tics_survives_random_power_storms() {
    for case in 0..24u64 {
        let mut state = 0x5707_2000 + case;
        let mut draw = || {
            state = splitmix64(state);
            state
        };
        // On-periods stay above the restore + checkpoint floor so forward
        // progress is physically possible (below it, starvation is the
        // *correct* outcome — covered by dedicated tests).
        let duty = 0.45 + (draw() % 1_000) as f64 / 1_000.0 * 0.5;
        let period = 15_000 + draw() % 45_000;
        let jitter = (draw() % 1_000) as f64 / 1_000.0 * 0.25;
        let seed = draw() % 1_000;
        let (name, src) = CORPUS[(draw() % CORPUS.len() as u64) as usize];
        let expected = run(
            tics_program(src),
            &mut TicsRuntime::new(TicsConfig::s2()),
            None,
        );
        let mut m = Machine::new(tics_program(src), MachineConfig::default()).expect("loads");
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(2_500)));
        let mut supply = DutyCycleTrace::new(duty, period, jitter, seed | 1);
        let out = Executor::new()
            .with_time_budget(20_000_000_000)
            .run(&mut m, &mut rt, &mut supply)
            .expect("no traps");
        assert_eq!(
            out.exit_code(),
            Some(expected),
            "{name} diverged (duty={duty}, period={period}, seed={seed})"
        );
    }
}
