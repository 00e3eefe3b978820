//! Cross-crate enforcement of Table 5: each runtime's declared
//! capabilities must match what its `check_program` actually accepts,
//! and every runtime keeps the shared rules of the `IntermittentRuntime`
//! trait — it refuses foreign instrumentation, and its frames start at
//! the bottom of its declared frame stack and overflow it loudly.

use tics_repro::apps::build::make_runtime;
use tics_repro::apps::{build_app, App, SystemUnderTest};
use tics_repro::baselines::{
    ChinchillaRuntime, NaiveCheckpoint, RatchetRuntime, TaskFlavor, TaskKernel,
};
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::mcu::Addr;
use tics_repro::minic::opt::OptLevel;
use tics_repro::minic::program::Instrumentation;
use tics_repro::minic::{compile, passes};
use tics_repro::vm::{IntermittentRuntime, Machine, MachineConfig, PortingEffort, VmError};

#[test]
fn declared_capabilities_match_acceptance() {
    // A recursive, pointer-using program image tagged for each system.
    let recursive_pointers = "
        int g;
        int rec(int n, int *p) { *p = n; if (n == 0) return 0; return rec(n - 1, p); }
        int main() { return rec(5, &g); }";

    // TICS accepts it.
    {
        let mut prog = compile(recursive_pointers, OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let rt = TicsRuntime::new(TicsConfig::default());
        assert!(rt.check_program(&prog).is_ok());
        assert!(rt.capabilities().pointer_support && rt.capabilities().recursion_support);
    }
    // Chinchilla rejects at instrumentation time (recursion).
    {
        let mut prog = compile(recursive_pointers, OptLevel::O0).unwrap();
        assert!(passes::instrument_chinchilla(&mut prog).is_err());
        assert!(
            !ChinchillaRuntime::default()
                .capabilities()
                .recursion_support
        );
    }
    // Task kernels reject both recursion and pointers.
    for flavor in [TaskFlavor::Alpaca, TaskFlavor::Ink, TaskFlavor::Mayfly] {
        let mut prog = compile(recursive_pointers, OptLevel::O2).unwrap();
        prog.instrumentation = Instrumentation::TaskBased;
        let rt = TaskKernel::new(flavor);
        assert!(rt.check_program(&prog).is_err(), "{}", flavor.name());
        let caps = rt.capabilities();
        assert!(!caps.pointer_support && !caps.recursion_support);
        assert_eq!(caps.porting_effort, PortingEffort::High);
    }
}

#[test]
fn timely_execution_column_matches_table5() {
    let timely: Vec<(&str, bool)> = vec![
        (
            "MayFly",
            TaskKernel::new(TaskFlavor::Mayfly)
                .capabilities()
                .timely_execution,
        ),
        (
            "Alpaca",
            TaskKernel::new(TaskFlavor::Alpaca)
                .capabilities()
                .timely_execution,
        ),
        (
            "Ratchet",
            RatchetRuntime::default().capabilities().timely_execution,
        ),
        (
            "Chinchilla",
            ChinchillaRuntime::default().capabilities().timely_execution,
        ),
        (
            "InK",
            TaskKernel::new(TaskFlavor::Ink)
                .capabilities()
                .timely_execution,
        ),
        (
            "naive",
            NaiveCheckpoint::default().capabilities().timely_execution,
        ),
        (
            "TICS",
            TicsRuntime::new(TicsConfig::default())
                .capabilities()
                .timely_execution,
        ),
    ];
    let expected = [true, false, false, false, true, false, true];
    for ((name, got), want) in timely.iter().zip(expected) {
        assert_eq!(*got, want, "{name} timely column");
    }
}

#[test]
fn memory_consistency_column_matches_table5() {
    // Naive (MementOS-style) is the one checkpointing system without a
    // consistency story: a reboot before its first commit restarts with
    // dirty `nv` state. Everything designed after WAR hazards were
    // understood claims — and, per the fault-injection harness, delivers
    // — consistent memory.
    let column: Vec<(&str, bool)> = vec![
        (
            "MayFly",
            TaskKernel::new(TaskFlavor::Mayfly)
                .capabilities()
                .memory_consistency,
        ),
        (
            "Alpaca",
            TaskKernel::new(TaskFlavor::Alpaca)
                .capabilities()
                .memory_consistency,
        ),
        (
            "Ratchet",
            RatchetRuntime::default().capabilities().memory_consistency,
        ),
        (
            "Chinchilla",
            ChinchillaRuntime::default()
                .capabilities()
                .memory_consistency,
        ),
        (
            "InK",
            TaskKernel::new(TaskFlavor::Ink)
                .capabilities()
                .memory_consistency,
        ),
        (
            "naive",
            NaiveCheckpoint::default().capabilities().memory_consistency,
        ),
        (
            "TICS",
            TicsRuntime::new(TicsConfig::default())
                .capabilities()
                .memory_consistency,
        ),
    ];
    let expected = [true, true, true, true, true, false, true];
    for ((name, got), want) in column.iter().zip(expected) {
        assert_eq!(*got, want, "{name} memory-consistency column");
    }
}

#[test]
fn only_tics_runs_the_annotated_ar_source() {
    // The annotated AR needs time semantics; time-blind runtimes are
    // given the *plain* AR by the build layer, and their kernels would
    // trap on annotation instructions anyway.
    let prog = build_app(
        App::Ar,
        SystemUnderTest::Tics,
        OptLevel::O2,
        tics_repro::apps::build::Scale(4),
    )
    .unwrap();
    assert!(!prog.annotated.is_empty(), "TICS AR is annotated");
    let plain = build_app(
        App::Ar,
        SystemUnderTest::Mementos,
        OptLevel::O2,
        tics_repro::apps::build::Scale(4),
    )
    .unwrap();
    assert!(
        plain.annotated.is_empty(),
        "baseline AR is the manual-time variant"
    );
}

/// Every instrumentation tag a program image can carry.
const TAGS: [Instrumentation; 6] = [
    Instrumentation::None,
    Instrumentation::Tics,
    Instrumentation::Mementos,
    Instrumentation::Chinchilla,
    Instrumentation::Ratchet,
    Instrumentation::TaskBased,
];

/// Frame size pushed by the stack tests: fits every runtime's frame
/// stack (and a TICS segment) many times over.
const FRAME: u32 = 64;

/// Every system's default runtime on a machine loaded with a one-line
/// program tagged for it, and whether its frames live in FRAM.
fn runtimes() -> Vec<(SystemUnderTest, Box<dyn IntermittentRuntime>, Machine, bool)> {
    SystemUnderTest::ALL
        .into_iter()
        .map(|system| {
            let mut prog = compile("int main() { return 0; }", OptLevel::O1).unwrap();
            let rt = make_runtime(system, &prog);
            prog.instrumentation = rt.instrumentation();
            rt.check_program(&prog)
                .unwrap_or_else(|e| panic!("{}: {e}", rt.name()));
            let m = Machine::new(prog, MachineConfig::default()).unwrap();
            let fram = matches!(system, SystemUnderTest::Tics | SystemUnderTest::Ratchet);
            (system, rt, m, fram)
        })
        .collect()
}

/// Pushes `FRAME`-byte frames as a recursion would until the runtime
/// refuses one; returns the placed frame bases and the refusal.
fn recurse_until_refused(
    rt: &mut dyn IntermittentRuntime,
    m: &mut Machine,
) -> (Vec<Addr>, VmError) {
    let mut frames = Vec::new();
    loop {
        match rt.alloc_frame(m, 0, FRAME, 0) {
            Ok(base) => {
                frames.push(base);
                assert!(
                    frames.len() < 10_000,
                    "{}: the stack never ran out",
                    rt.name()
                );
                m.regs.fp = base;
                m.regs.sp = base.offset(FRAME);
            }
            Err(e) => return (frames, e),
        }
    }
}

#[test]
fn every_runtime_rejects_foreign_instrumentation() {
    for (system, rt, m, _) in runtimes() {
        let mut prog = m.loaded().program.clone();
        for tag in TAGS.into_iter().filter(|&t| t != rt.instrumentation()) {
            prog.instrumentation = tag;
            assert!(
                matches!(
                    rt.check_program(&prog),
                    Err(VmError::IncompatibleInstrumentation { .. })
                ),
                "{system:?} must reject a {tag:?} image"
            );
        }
    }
}

#[test]
fn every_runtime_overflows_its_frame_stack_with_stack_overflow() {
    for (system, mut rt, mut m, _) in runtimes() {
        let (frames, err) = recurse_until_refused(rt.as_mut(), &mut m);
        assert!(
            matches!(err, VmError::StackOverflow { .. }),
            "{system:?}: a recursion deeper than the frame stack must overflow, got {err}"
        );
        let stack = rt.frame_stack(&mut m).unwrap();
        assert!(
            frames.len() > 1,
            "{system:?}: only {} frames fit",
            frames.len()
        );
        for base in &frames {
            assert!(
                stack.contains_range(*base, FRAME),
                "{system:?}: frame at {base} outside its stack {stack}"
            );
        }
    }
}

#[test]
fn every_runtime_places_its_first_frame_at_the_bottom_of_its_stack() {
    for (system, mut rt, mut m, fram) in runtimes() {
        let first = rt.alloc_frame(&mut m, 0, FRAME, 0).unwrap();
        let stack = rt.frame_stack(&mut m).unwrap();
        assert_eq!(first, stack.start, "{system:?}");
        let layout = m.mem.layout();
        let home = if fram { layout.fram } else { layout.sram };
        assert!(
            home.contains_range(stack.start, stack.len()),
            "{system:?}: frame stack {stack} outside {home}"
        );
    }
}
