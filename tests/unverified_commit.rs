//! An unverified stage charges nothing. When brown-out corruption drops
//! every staging store of a checkpoint, read-back verification refuses
//! the stage, and every hardened runtime aborts the commit before its
//! energy charge: no checkpoint cycles, no `CheckpointCommit`. TICS,
//! Chinchilla and the task kernels carry on; Ratchet, whose consistency
//! is the boundary checkpoint itself, traps. The clean commit that
//! follows reports record payload: the misc block plus the images the
//! runtime staged, never a header.

use tics_repro::baselines::{ChinchillaRuntime, RatchetRuntime, TaskFlavor, TaskKernel};
use tics_repro::core::{TicsConfig, TicsRuntime};
use tics_repro::mcu::CorruptionModel;
use tics_repro::minic::isa::CkptSite;
use tics_repro::minic::{compile, opt::OptLevel};
use tics_repro::vm::persist::DELTA_MISC;
use tics_repro::vm::{
    CheckpointKind, IntermittentRuntime, Machine, MachineConfig, ResumeAction, VmError,
};

/// The image bytes a runtime stages into a full bank, from the machine
/// it checkpoints.
type ImageBytes = fn(&Machine) -> u32;

/// Live SRAM stack bytes: the stack image of Chinchilla and the task
/// kernels.
fn used_stack(m: &Machine) -> u32 {
    m.regs
        .sp
        .raw()
        .saturating_sub(m.mem.layout().sram.start.raw())
}

/// Cycles and committed checkpoints so far.
fn progress(m: &Machine) -> (u64, u64) {
    (m.cycles(), m.stats().checkpoints)
}

/// Boots `rt` on a fresh machine, then requests one checkpoint with
/// every staging store dropped (a power cut armed inside the corruption
/// window) and one without corruption, whose full bank must report
/// `DELTA_MISC` plus `image_bytes` of payload. Returns the corrupted
/// request's result, and whether it moved the cycle count or the commit
/// count.
fn request_under_total_corruption(
    rt: &mut dyn IntermittentRuntime,
    image_bytes: ImageBytes,
    seed: u64,
) -> (Result<(), VmError>, bool) {
    let prog = compile("int g; int main() { g = 1; return g; }", OptLevel::O1).unwrap();
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let restart = rt.on_boot(&mut m).unwrap();
    assert!(
        matches!(restart, ResumeAction::Restart { .. }),
        "{}: nothing published yet",
        rt.name()
    );
    // Stand in for `main`'s frame at the base of SRAM, so every runtime's
    // image (frame, live stack) is nonempty.
    let sram = m.mem.layout().sram.start;
    m.regs.fp = sram;
    m.regs.sp = sram.offset(m.loaded().program.max_frame_size());
    let request = CheckpointKind::Site(CkptSite::Manual);

    let before = progress(&m);
    let corruption = CorruptionModel::new(u64::MAX, 0.0, 1.0, seed);
    m.mem.set_corruption(Some(corruption));
    m.mem.set_power_cut(Some(m.cycles() + 1));
    let result = rt.checkpoint(&mut m, request);
    m.mem.set_power_cut(None);
    m.mem.set_corruption(None);
    let moved = progress(&m) != before;
    assert!(
        m.mem.stats().corrupted_writes > 0,
        "{}: the request staged nothing to corrupt",
        rt.name()
    );

    // The same request on clean stores commits, so the corrupted one
    // really reached the commit path.
    let (cycles, commits) = progress(&m);
    let bytes = m.stats().checkpoint_bytes;
    rt.checkpoint(&mut m, request).unwrap();
    let (cycles_after, commits_after) = progress(&m);
    assert_eq!(commits_after, commits + 1, "{}: clean request", rt.name());
    assert!(cycles_after > cycles, "{}: clean request", rt.name());
    assert_eq!(
        m.stats().checkpoint_bytes - bytes,
        u64::from(DELTA_MISC + image_bytes(&m)),
        "{}: a full bank reports its payload, the misc block plus the images",
        rt.name()
    );
    (result, moved)
}

#[test]
fn an_unverified_stage_charges_nothing_and_commits_nothing() {
    for seed in [1, 0x5EED, 0xC0FF_EE00] {
        let mut carry_on: Vec<(Box<dyn IntermittentRuntime>, ImageBytes)> = vec![
            (Box::new(TicsRuntime::new(TicsConfig::default())), |_| {
                TicsConfig::default().seg_size
            }),
            (Box::new(ChinchillaRuntime::default()), |m| {
                used_stack(m) + m.loaded().program.globals_size
            }),
            (Box::new(TaskKernel::new(TaskFlavor::Alpaca)), used_stack),
        ];
        for (rt, image_bytes) in &mut carry_on {
            let (result, moved) = request_under_total_corruption(rt.as_mut(), *image_bytes, seed);
            assert!(result.is_ok(), "{} seed {seed:#x}: {result:?}", rt.name());
            assert!(
                !moved,
                "{} seed {seed:#x}: an unverified stage charged cycles or committed",
                rt.name()
            );
        }

        let mut ratchet = RatchetRuntime::default();
        // Ratchet's bank holds the current frame.
        let frame = |m: &Machine| m.regs.sp.raw().saturating_sub(m.regs.fp.raw());
        let (result, moved) = request_under_total_corruption(&mut ratchet, frame, seed);
        assert!(
            matches!(result, Err(VmError::Trap(_))),
            "Ratchet seed {seed:#x}: {result:?}"
        );
        assert!(!moved, "Ratchet seed {seed:#x}: charged before trapping");
    }
}
