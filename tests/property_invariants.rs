//! Property-style tests across the compiler and runtime stack. Inputs
//! come from a seeded splitmix64 stream (64 deterministic cases per
//! property) instead of a fuzzing crate, so the suite builds offline and
//! replays exactly.

use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::energy::{ContinuousPower, PeriodicTrace};
use tics_repro::minic::{compile, opt::OptLevel, passes};
use tics_repro::vm::{BareRuntime, Executor, Machine, MachineConfig};

const CASES: u64 = 64;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform in `lo..hi` (i64 bounds, for signed literals).
    fn irange(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

const OPS: [Op; 8] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Shl,
    Op::Shr,
];

impl Op {
    fn c_op(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::And => "&",
            Op::Or => "|",
            Op::Xor => "^",
            Op::Shl => "<<",
            Op::Shr => ">>",
        }
    }

    fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Shl => a.wrapping_shl(b as u32 & 31),
            Op::Shr => a.wrapping_shr(b as u32 & 31),
        }
    }
}

fn run_plain(src: &str, opt: OptLevel) -> i32 {
    let prog = compile(src, opt).expect("compiles");
    let mut m = Machine::new(prog, MachineConfig::default()).expect("loads");
    let mut rt = BareRuntime::new();
    Executor::new()
        .run(&mut m, &mut rt, &mut ContinuousPower::new())
        .expect("runs")
        .exit_code()
        .expect("finishes")
}

/// Random straight-line arithmetic agrees with Rust's wrapping
/// semantics at every optimization level — the compiler correctness
/// backbone for everything else in this repo.
#[test]
fn compiled_arithmetic_matches_host() {
    for case in 0..CASES {
        let mut rng = Rng(0xA217_0000 + case);
        let seed = rng.irange(-1000, 1000) as i32;
        let n = rng.range(1, 24) as usize;
        let mut body = format!("int x = {seed};\n");
        let mut expected = seed;
        for _ in 0..n {
            let op = OPS[rng.range(0, OPS.len() as u64) as usize];
            let c = rng.irange(-50, 50) as i32;
            // Shift counts must be sane in the source to mean the same
            // thing; mask them into 0..16.
            let c = match op {
                Op::Shl | Op::Shr => (c & 15).abs(),
                _ => c,
            };
            body.push_str(&format!("x = x {} ({c});\n", op.c_op()));
            expected = op.eval(expected, c);
        }
        let src = format!("int main() {{\n{body}return x;\n}}");
        for opt in OptLevel::ALL {
            assert_eq!(run_plain(&src, opt), expected, "case {case} opt {opt}");
        }
    }
}

/// Array shuffles through pointers behave identically at O0 and O2.
#[test]
fn pointer_walks_are_opt_invariant() {
    for case in 0..CASES {
        let mut rng = Rng(0xB0A2_0000 + case);
        let n = rng.range(4, 12) as usize;
        let values: Vec<i32> = (0..n).map(|_| rng.irange(-100, 100) as i32).collect();
        let rot = rng.range(1, 4) as usize;
        let init: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("a[{i}] = {v};"))
            .collect();
        let src = format!(
            "int a[{n}];
             int main() {{
                 {}
                 int *p = a;
                 int acc = 0;
                 for (int i = 0; i < {n}; i++) {{
                     acc = acc * 31 + *(p + ((i + {rot}) % {n}));
                 }}
                 return acc;
             }}",
            init.join("\n")
        );
        let mut expected = 0i32;
        for i in 0..n {
            expected = expected
                .wrapping_mul(31)
                .wrapping_add(values[(i + rot) % n]);
        }
        assert_eq!(run_plain(&src, OptLevel::O0), expected, "case {case}");
        assert_eq!(run_plain(&src, OptLevel::O2), expected, "case {case}");
    }
}

/// A random global-update workload under TICS with power failures
/// ends exactly where the continuous run ends (undo-log soundness
/// against arbitrary write patterns).
#[test]
fn undo_log_is_sound_for_random_write_patterns() {
    // Each case simulates tens of milliseconds; a quarter of the cases
    // keeps this test a few seconds while still varying pattern + phase.
    for case in 0..CASES / 4 {
        let mut rng = Rng(0x0D0C_0000 + case);
        let n = rng.range(4, 40) as usize;
        let writes: Vec<(u32, i32)> = (0..n)
            .map(|_| (rng.range(0, 8) as u32, rng.irange(-100, 100) as i32))
            .collect();
        let on_us = rng.range(6_000, 20_000);
        let stmts: Vec<String> = writes
            .iter()
            .map(|(slot, v)| format!("g[{slot}] = g[{slot}] * 3 + ({v});"))
            .collect();
        let src = format!(
            "int g[8];
             nv int reps;
             int main() {{
                 while (reps < 20) {{
                     {}
                     reps = reps + 1;
                 }}
                 int acc = 0;
                 for (int i = 0; i < 8; i++) {{ acc = acc ^ (g[i] + i); }}
                 return acc;
             }}",
            stmts.join("\n")
        );
        let build = || {
            let mut p = compile(&src, OptLevel::O2).expect("compiles");
            passes::instrument_tics(&mut p).expect("instruments");
            p
        };
        let expected = {
            let mut m = Machine::new(build(), MachineConfig::default()).expect("loads");
            let mut rt = TicsRuntime::new(TicsConfig::s2());
            Executor::new()
                .run(&mut m, &mut rt, &mut ContinuousPower::new())
                .expect("runs")
                .exit_code()
                .expect("finishes")
        };
        let mut m = Machine::new(build(), MachineConfig::default()).expect("loads");
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(2_000)));
        let out = Executor::new()
            .with_time_budget(20_000_000_000)
            .run(&mut m, &mut rt, &mut PeriodicTrace::new(on_us, 700))
            .expect("runs");
        assert_eq!(out.exit_code(), Some(expected), "case {case}");
    }
}
