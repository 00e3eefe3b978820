//! Property test: generated instruction sequences execute identically
//! under the reference and decoded engines.
//!
//! A `splitmix64`-seeded generator assembles random programs from
//! depth-0 block templates (arithmetic chains, local/global RMW
//! patterns that the decoder fuses into superinstructions, pointer
//! stores, compare-and-branch blocks, bounded counted loops, calls,
//! possible divide-by-zero traps, sends, and peripheral intrinsics —
//! UART tx/rx pairs and journaled I2C read transactions, so torn wire
//! bytes, FIFO state, and the `tx_begin`/`tx_commit` no-driver path are
//! all covered differentially). A quarter of the
//! programs get a deliberately undersized operand stack so the decoder
//! refuses to verify them and falls back to reference semantics — the
//! runtime overflow trap must be identical.
//!
//! Each program runs under continuous power, under a short-period
//! intermittent supply (restart-from-`main` with torn multi-word state
//! across the cut boundary), and under the brown-out corruption model —
//! and the full machine snapshot (trace, cycles, span attribution,
//! stats, final SRAM + FRAM) must match between engines.

use tics_energy::{ContinuousPower, PeriodicTrace, PowerSupply};
use tics_mcu::memory::MemoryStats;
use tics_mcu::CorruptionModel;
use tics_minic::isa::{BinOp, Instr, Syscall, UnOp};
use tics_minic::program::{Function, GlobalVar};
use tics_minic::Program;
use tics_trace::{SpanKind, TraceRecord};
use tics_vm::{BareRuntime, DispatchEngine, ExecStats, Executor, Machine, MachineConfig};

/// Deterministic seed expander (same constants as the sweep harness).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(rng: &mut u64, n: u64) -> u64 {
    splitmix64(rng) % n
}

// ---------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------

/// Emits instructions while tracking the operand-stack depth, so every
/// generated block starts and ends at depth 0 and the high-water mark
/// sizes `max_ostack`.
struct Emitter {
    code: Vec<Instr>,
    depth: u16,
    max_depth: u16,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            code: Vec::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    /// Appends `i`, moving the depth by the ISA's stack effect (the
    /// only callee, `helper`, takes one argument).
    fn emit(&mut self, i: Instr) {
        self.code.push(i);
        let (pops, pushes) = i.stack_effect(|_| 1);
        self.depth = self.depth - pops + pushes;
        self.max_depth = self.max_depth.max(self.depth);
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }
}

const BINOPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Ge,
];

/// One depth-0 → depth-0 template. `locals`/`globals` are slot counts.
fn emit_block(e: &mut Emitter, rng: &mut u64, locals: u16, globals: u32) {
    let lslot = |rng: &mut u64| (pick(rng, u64::from(locals)) as u16) * 4;
    let gslot = |rng: &mut u64| (pick(rng, u64::from(globals)) as u32) * 4;
    let konst = |rng: &mut u64| (splitmix64(rng) as i32) % 1_000;
    let binop = |rng: &mut u64| Instr::Bin(BINOPS[pick(rng, BINOPS.len() as u64) as usize]);
    match pick(rng, 12) {
        // Constant chain folded through a binop into a local
        // (the decoder's KBin / KStL shapes).
        0 => {
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Const(konst(rng)));
            e.emit(binop(rng));
            e.emit(Instr::StoreLocal(lslot(rng)));
        }
        // Local read-modify-write (the LdLKBinSt superinstruction).
        1 => {
            let o = lslot(rng);
            e.emit(Instr::LoadLocal(o));
            e.emit(Instr::Const(konst(rng)));
            e.emit(binop(rng));
            e.emit(Instr::StoreLocal(o));
        }
        // Global read-modify-write (the LdGKBinSt superinstruction).
        2 => {
            let g = gslot(rng);
            e.emit(Instr::LoadGlobal(g));
            e.emit(Instr::Const(konst(rng)));
            e.emit(binop(rng));
            e.emit(Instr::StoreGlobal(g));
        }
        // Compare-and-skip (the LdLKBinBr superinstruction): the taken
        // and fall-through paths rejoin at depth 0.
        3 => {
            e.emit(Instr::LoadLocal(lslot(rng)));
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Bin(BinOp::Lt));
            let jz_at = e.pc() as usize;
            e.emit(Instr::Jz(0)); // patched below
            e.emit(Instr::LoadGlobal(gslot(rng)));
            e.emit(Instr::Const(1));
            e.emit(Instr::Bin(BinOp::Add));
            e.emit(Instr::StoreGlobal(gslot(rng)));
            let target = e.pc();
            e.code[jz_at] = Instr::Jz(target);
        }
        // Visible event: send a global (trace streams must match).
        4 => {
            e.emit(Instr::LoadGlobal(gslot(rng)));
            e.emit(Instr::Syscall(Syscall::Send));
            e.emit(Instr::Pop);
        }
        // Pointer traffic through locals and globals.
        5 => {
            e.emit(Instr::AddrLocal(lslot(rng)));
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::StoreInd);
            e.emit(Instr::AddrGlobal(gslot(rng)));
            e.emit(Instr::LoadInd);
            e.emit(Instr::StoreLocal(lslot(rng)));
        }
        // Stack shuffling.
        6 => {
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Dup);
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Swap);
            e.emit(binop(rng));
            e.emit(binop(rng));
            e.emit(Instr::Un(UnOp::Neg));
            e.emit(Instr::StoreLocal(lslot(rng)));
        }
        // Bounded counted loop with a backward branch at depth 0.
        7 => {
            let counter = lslot(rng);
            let g = gslot(rng);
            e.emit(Instr::Const(3 + pick(rng, 5) as i32));
            e.emit(Instr::StoreLocal(counter));
            let top = e.pc();
            e.emit(Instr::LoadGlobal(g));
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Bin(BinOp::Xor));
            e.emit(Instr::StoreGlobal(g));
            e.emit(Instr::LoadLocal(counter));
            e.emit(Instr::Const(1));
            e.emit(Instr::Bin(BinOp::Sub));
            e.emit(Instr::StoreLocal(counter));
            e.emit(Instr::LoadLocal(counter));
            e.emit(Instr::Jnz(top));
        }
        // Possible divide-by-zero: the trap (and its text) must be
        // identical across engines. One in four picks a zero divisor.
        8 => {
            let k = if pick(rng, 4) == 0 { 0 } else { konst(rng) | 1 };
            e.emit(Instr::LoadLocal(lslot(rng)));
            e.emit(Instr::Const(k));
            let op = if pick(rng, 2) == 0 {
                BinOp::Div
            } else {
                BinOp::Mod
            };
            e.emit(Instr::Bin(op));
            e.emit(Instr::StoreLocal(lslot(rng)));
        }
        // UART traffic: tx a computed byte (the result — 1 unless the
        // byte tore — lands in a local), then rx the loopback response
        // into a global. Wire state and FIFO contents must match.
        10 => {
            e.emit(Instr::LoadLocal(lslot(rng)));
            e.emit(Instr::Syscall(Syscall::UartTx));
            e.emit(Instr::StoreLocal(lslot(rng)));
            e.emit(Instr::Syscall(Syscall::UartRx));
            e.emit(Instr::StoreGlobal(gslot(rng)));
        }
        // Journaled I2C read transaction. With `BareRuntime` there is
        // no transaction driver, so `tx_begin`/`tx_commit` take the
        // no-driver path — which must still be engine-identical, as
        // must the sensor's served-reading cursor.
        11 => {
            let id = 1 + pick(rng, 7) as i32;
            e.emit(Instr::Const(id));
            e.emit(Instr::Syscall(Syscall::TxBegin));
            e.emit(Instr::Pop);
            e.emit(Instr::Syscall(Syscall::I2cReset));
            e.emit(Instr::Pop);
            e.emit(Instr::Const(0x40));
            e.emit(Instr::Syscall(Syscall::I2cStart));
            e.emit(Instr::Pop);
            e.emit(Instr::Syscall(Syscall::I2cRead));
            e.emit(Instr::StoreLocal(lslot(rng)));
            e.emit(Instr::Syscall(Syscall::I2cStop));
            e.emit(Instr::StoreGlobal(gslot(rng)));
            e.emit(Instr::Const(id));
            e.emit(Instr::Syscall(Syscall::TxCommit));
            e.emit(Instr::Pop);
        }
        // Call into the helper (runtime-mediated: decoded falls back to
        // reference dispatch for the Call itself).
        _ => {
            e.emit(Instr::Const(konst(rng)));
            e.emit(Instr::Call(1));
            e.emit(Instr::StoreLocal(lslot(rng)));
        }
    }
    debug_assert_eq!(e.depth, 0, "templates must be depth-neutral");
}

/// A random program: initialized locals/globals, 4–10 template blocks,
/// a helper function, and a `Ret` of a global.
fn gen_program(rng: &mut u64) -> Program {
    let locals: u16 = 2 + pick(rng, 4) as u16;
    let globals: u32 = 2 + pick(rng, 4) as u32;

    let mut e = Emitter::new();
    for slot in 0..locals {
        e.emit(Instr::Const((splitmix64(rng) as i32) % 500));
        e.emit(Instr::StoreLocal(slot * 4));
    }
    let blocks = 4 + pick(rng, 7);
    for _ in 0..blocks {
        emit_block(&mut e, rng, locals, globals);
    }
    e.emit(Instr::LoadGlobal(0));
    e.emit(Instr::Ret);

    // One in four programs gets an undersized operand stack: the
    // decoder must refuse to verify and fall back to reference
    // semantics, and the runtime overflow trap must be identical.
    let undersized = pick(rng, 4) == 0;
    let max_ostack = if undersized {
        e.max_depth.saturating_sub(1)
    } else {
        e.max_depth
    };

    let main = Function {
        name: "main".to_string(),
        n_args: 0,
        locals_bytes: locals * 4,
        max_ostack,
        code: e.code,
        entry_checked: false,
    };
    let helper = Function {
        name: "helper".to_string(),
        n_args: 1,
        locals_bytes: 0,
        max_ostack: 2,
        code: vec![
            Instr::LoadLocal(0),
            Instr::Const(3),
            Instr::Bin(BinOp::Mul),
            Instr::Ret,
        ],
        entry_checked: false,
    };
    let global_vars = (0..globals)
        .map(|i| GlobalVar {
            name: format!("g{i}"),
            offset: i * 4,
            size: 4,
            nv: pick(rng, 2) == 0,
            init: if pick(rng, 2) == 0 {
                vec![(splitmix64(rng) as i32) % 9_000]
            } else {
                Vec::new()
            },
            var_id: None,
        })
        .collect();
    Program {
        functions: vec![main, helper],
        globals: global_vars,
        globals_size: globals * 4,
        entry: 0,
        ..Program::default()
    }
}

// ---------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Snapshot {
    outcome: String,
    trace: Vec<TraceRecord>,
    cycles: u64,
    stats: ExecStats,
    mem_stats: MemoryStats,
    span: [u64; SpanKind::COUNT],
    sram: Vec<u8>,
    fram: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
enum Scenario {
    Continuous,
    /// Short on-periods: restart-from-`main` with torn stores at each
    /// period boundary.
    Torn,
    /// Torn periods plus the brown-out corruption model.
    Corrupted {
        seed: u64,
    },
}

fn run_one(prog: &Program, engine: DispatchEngine, scenario: Scenario) -> Snapshot {
    let mut m = Machine::new(prog.clone(), MachineConfig::default()).expect("machine");
    if let Scenario::Corrupted { seed } = scenario {
        m.mem.set_corruption(Some(
            CorruptionModel::new(600, 0.3, 0.3, seed).with_sram_decay(1.0),
        ));
    }
    let mut supply: Box<dyn PowerSupply> = match scenario {
        Scenario::Continuous => Box::new(ContinuousPower::new()),
        // Short enough to cut most generated programs mid-run several
        // times; BareRuntime restarts from `main` with nv state kept.
        Scenario::Torn | Scenario::Corrupted { .. } => Box::new(PeriodicTrace::new(900, 120)),
    };
    let mut rt = BareRuntime::new();
    let exec = Executor::new()
        .with_engine(engine)
        .with_time_budget(400_000)
        .with_progress_guard(24);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.run(&mut m, &mut rt, supply.as_mut())
    }));
    let outcome = match result {
        Ok(Ok(o)) => format!("{o:?}"),
        Ok(Err(err)) => format!("error: {err}"),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("panic: {text}")
        }
    };
    let layout = *m.mem.layout();
    Snapshot {
        outcome,
        trace: m.trace().records().to_vec(),
        cycles: m.cycles(),
        stats: m.stats().clone(),
        mem_stats: m.mem.stats(),
        span: m.mem.span_cycles_all(),
        sram: m
            .mem
            .peek_slice(layout.sram.start, layout.sram.len())
            .unwrap()
            .to_vec(),
        fram: m
            .mem
            .peek_slice(layout.fram.start, layout.fram.len())
            .unwrap()
            .to_vec(),
    }
}

fn assert_roundtrip(seed: u64, prog: &Program, scenario: Scenario) {
    let reference = run_one(prog, DispatchEngine::Reference, scenario);
    let decoded = run_one(prog, DispatchEngine::Decoded, scenario);
    assert_eq!(
        reference, decoded,
        "engines diverge on generated program (seed {seed:#x}, {scenario:?});\n\
         code: {:?}",
        prog.functions[0].code
    );
}

#[test]
fn generated_programs_roundtrip_on_continuous_power() {
    let mut rng = 0xD1FF_0001u64;
    for _ in 0..48 {
        let seed = rng;
        let prog = gen_program(&mut rng);
        assert_roundtrip(seed, &prog, Scenario::Continuous);
    }
}

#[test]
fn generated_programs_roundtrip_under_torn_restarts() {
    let mut rng = 0xD1FF_0002u64;
    for _ in 0..32 {
        let seed = rng;
        let prog = gen_program(&mut rng);
        assert_roundtrip(seed, &prog, Scenario::Torn);
    }
}

#[test]
fn generated_programs_roundtrip_under_brownout_corruption() {
    let mut rng = 0xD1FF_0003u64;
    for i in 0..32 {
        let seed = rng;
        let prog = gen_program(&mut rng);
        assert_roundtrip(
            seed,
            &prog,
            Scenario::Corrupted {
                seed: 0xBAD_F00D + i,
            },
        );
    }
}

/// The generator must actually exercise the fused fast path: decode the
/// generated programs and require a healthy superinstruction count.
#[test]
fn generated_programs_exercise_fusion() {
    let mut rng = 0xD1FF_0004u64;
    let mut fused = 0usize;
    let mut programs = 0usize;
    for _ in 0..16 {
        let prog = gen_program(&mut rng);
        let m = Machine::new(prog, MachineConfig::default()).expect("machine");
        fused += m.loaded().decoded.fused;
        programs += 1;
    }
    assert!(
        fused >= programs * 4,
        "expected ≥4 fused superinstructions per generated program on average, got {fused}/{programs}"
    );
}
