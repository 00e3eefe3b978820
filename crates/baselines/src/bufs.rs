//! The baselines' shared FRAM layout: a small control block at the
//! runtime-area base and, for every baseline that claims memory
//! consistency, the [`tics_vm::persist`] banks and delta journal right
//! after it. The protocol itself lives in `persist`; the naive
//! MementOS-style runtime uses only the control block — it is the
//! experiments' un-hardened control.

use tics_mcu::{Addr, Registers};
use tics_vm::persist::{init_control, pack_misc, unpack_misc, BankPair, Checkpoint, Misc};
use tics_vm::{Machine, VmError};

type Result<T> = std::result::Result<T, VmError>;

/// Magic marking an initialized control block.
const MAGIC: u32 = 0xBA5E_C001;

/// Control block: `u32` magic, `u32` valid-bank flag (0 = none, 1 = A,
/// 2 = B), `u32` scratch word (undo count or similar), `u64` delta-chain
/// base and `u64` delta-chain tip.
pub(crate) const FLAG: u32 = 4;
/// Offset of the control block's scratch word.
pub(crate) const SCRATCH: u32 = 8;
const DELTA_BASE: u32 = 12;
const DELTA_TIP: u32 = 20;
/// Size of the control block in bytes.
pub(crate) const CTRL_SIZE: u32 = 28;

/// Bytes a hardened baseline's full-image size adds to its images, for
/// the delta threshold and Chinchilla's and the task kernels' full-bank
/// cost: the register header of the bank layout before every bank
/// became a sealed record. Frozen so simulated cycles do not move;
/// unifying it with the sealed-record sizes is a re-baseline of its own.
pub(crate) const FULL_IMAGE_PAD: u32 = 20;

/// Bytes Chinchilla's and the task kernels' restore cost adds to the
/// restored bytes: the same legacy register header, frozen likewise.
pub(crate) const RESTORE_PAD: u32 = 20;

/// Initializes the control block at `base` on the first boot of an image.
pub(crate) fn init_ctrl(m: &mut Machine, base: Addr) -> Result<()> {
    init_control(m, base, MAGIC, CTRL_SIZE)
}

/// Lays out a hardened baseline's persistent area — control block, then
/// two banks with room for `max_image` image bytes, then the delta
/// journal — and places `ckpt` on it. Fails with `Load(what)` unless
/// `extra` more bytes after the journal still fit in FRAM; otherwise
/// initializes the control block and returns the first byte past the
/// journal.
pub(crate) fn attach_hardened(
    m: &mut Machine,
    max_image: u32,
    extra: u32,
    ckpt: &mut Checkpoint,
    what: &str,
) -> Result<Addr> {
    let base = m.runtime_area_base();
    let banks = BankPair::new(
        base.offset(CTRL_SIZE),
        base.offset(FLAG),
        base.offset(DELTA_BASE),
        max_image,
    );
    let (journal, capacity) = banks.journal();
    let end = journal.offset(capacity);
    if !m.mem.layout().fram.contains(Addr(end.raw() + extra - 1)) {
        return Err(VmError::Load(what.into()));
    }
    init_ctrl(m, base)?;
    ckpt.place(banks, base.offset(DELTA_TIP));
    Ok(end)
}

/// A baseline misc block: an unused zero word, the registers, and a
/// runtime-defined length word (live stack or frame bytes).
pub(crate) fn misc(m: &Machine, len: u32) -> Misc {
    let [pc, sp, fp, sr] = m.regs.to_words();
    pack_misc([0, pc, sp, fp, sr, len])
}

/// The registers and length word of a baseline misc block.
pub(crate) fn unpack(misc: &Misc) -> (Registers, u32) {
    let [_, pc, sp, fp, sr, len] = unpack_misc(misc);
    (Registers::from_words([pc, sp, fp, sr]), len)
}
