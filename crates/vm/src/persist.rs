//! Crash-consistent persistence: the one commit/restore protocol behind
//! every hardened runtime (TICS, Ratchet, Chinchilla, the task kernels)
//! and the staging of the peripheral transaction journal.
//!
//! Checkpoints are double-buffered and committed in two phases (§4 of
//! the paper). Phase 1 *stages* a self-validating image — a monotonic
//! sequence number plus a CRC-32 — where no restore reads it yet, and
//! verifies it by read-back ([`verified_poke`]): a brown-out can flip or
//! drop any store longer than the controller's 8-byte atomic write
//! buffer ([`tics_mcu::CorruptionModel`]). Phase 2 *publishes* it with
//! stores of at most 8 bytes, which are never torn or corrupted. Boot
//! validates before it trusts anything, and degrades to an older valid
//! image or a declared fresh start — each journaled as a
//! [`TraceEvent::Recovery`] — instead of running on corrupted state.
//!
//! Four pieces:
//!
//! * [`verified_poke`] — staging with read-back verification.
//! * [`BankPair`] — two full-image banks, a `u32` flag word (0 =
//!   nothing published, 1 = bank A, 2 = bank B) and a `u64` word holding
//!   the published bank's sequence number, with the delta journal right
//!   after bank B.
//! * [`Checkpoint`] — a bank pair plus its DiCA-style delta chain:
//!   incremental records chained off the published bank, each carrying
//!   only the words the dirty-word write monitor saw change since the
//!   previous commit. The published bank's sequence number is the
//!   chain's base; a `u64` tip word names the last published record.
//!   [`Checkpoint::commit`] and [`Checkpoint::boot`] are the one commit
//!   and the one boot sequence of every hardened runtime.
//! * [`UndoLog`] — the write-ahead undo log that makes a region's stores
//!   revocable between checkpoints: one `(u32 addr, u32 old)` slot per
//!   logged word and a persistent `u32` count word, rolled back newest
//!   first at reboot (and, under TICS, at an `@expires` catch).
//!
//! # One on-FRAM record format
//!
//! Every bank and every delta record is a *sealed record*: `[u64 seq |
//! u32 len | u32 crc]` followed by `len` payload bytes, staged header
//! first, then payload; the CRC covers sequence, length and payload. The
//! payload always starts with the [`DELTA_MISC`]-byte misc block (six
//! caller-defined words: registers and the runtime state a restore
//! needs). A bank's payload continues with the full images; a delta
//! record's, with one `(u32 addr, u32 value)` entry per dirty word.
//!
//! One byte rule: a reported byte count is record payload, never
//! header. A commit's [`TraceEvent::CheckpointCommit`] carries the
//! published record's `len` and a boot's [`TraceEvent::Restore`] the
//! payload boot read back, so no runtime does arithmetic on this format.
//!
//! # The sequence is here; policy stays with the caller
//!
//! [`Checkpoint`] owns the order of the steps. A commit primes a cold
//! cursor, stages, verifies, charges and publishes; a boot selects a
//! bank, loads it, restores its images and replays the chain. Two rules
//! hold for every runtime, with no parameter:
//!
//! * **Verify before charging.** An unverified stage charges nothing and
//!   publishes nothing ([`CommitOutcome::VerifyAbort`]).
//! * **One cold floor.** A cold cursor's next sequence number is past
//!   the newest valid bank, published or not, and past the chain tip.
//!
//! [`Checkpoint`] also owns what a commit and a boot leave in the trace:
//! each runs in its [`SpanKind::Checkpoint`] or [`SpanKind::Restore`]
//! span, a publish emits one [`TraceEvent::CheckpointCommit`], and a
//! restore charges its cost atomically and emits one
//! [`TraceEvent::Restore`]. The caller supplies the checkpoint's cause,
//! its Table 4 cost formulas and the regions its misc block describes,
//! and decides what an abort means. Commit and boot allocate nothing in
//! steady state: the chain owns the staging buffer and the regions are
//! fixed-size arrays.
//!
//! The undo log is the exception: its spans, its Table 4 costs
//! (`undo_log_cost`, `rollback_cost`) and its trace events are the same
//! for every runtime, so [`UndoLog`] owns them. The runtime keeps the
//! policy around it — what to log, what to do when the log is full, and
//! where to roll back to.

use tics_mcu::{Addr, CostModel, Crc32};
use tics_trace::{CkptCause, SpanKind, TraceEvent};

use crate::error::VmError;
use crate::machine::Machine;
use crate::Result;

/// Read-back verification attempts per staged store. Each attempt
/// re-draws the corruption RNG, so retries converge whenever the
/// per-store corruption probability is below 1.
pub const VERIFY_ATTEMPTS: u32 = 16;

/// Sealed-record header: `u64` sequence, `u32` payload length, `u32`
/// CRC-32. No reported byte count includes it; it is public so tests
/// can find the payload of a record they corrupt.
pub const DELTA_HEADER: u32 = 16;

/// Misc block leading every record payload, bank or delta.
pub const DELTA_MISC: u32 = 24;

/// A misc block: six little-endian `u32` words whose meaning the caller
/// defines. The last published record's copy wins at restore.
pub type Misc = [u8; DELTA_MISC as usize];

/// Packs six words into a misc block.
#[must_use]
pub fn pack_misc(words: [u32; 6]) -> Misc {
    let mut misc = [0u8; DELTA_MISC as usize];
    for (chunk, w) in misc.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    misc
}

/// Unpacks a misc block into its six words.
#[must_use]
pub fn unpack_misc(misc: &Misc) -> [u32; 6] {
    std::array::from_fn(|i| le_u32(misc, 4 * i))
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte word"))
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte word"))
}

/// Pokes `bytes` at `a` and reads them back, retrying until the store
/// landed intact. Returns `false` if corruption defeated all
/// [`VERIFY_ATTEMPTS`]; what that means is the caller's policy.
///
/// # Errors
///
/// Propagates unmapped-address errors.
pub fn verified_poke(m: &mut Machine, a: Addr, bytes: &[u8]) -> Result<bool> {
    for _ in 0..VERIFY_ATTEMPTS {
        m.mem.poke_bytes(a, bytes)?;
        if m.mem.peek_slice(a, bytes.len() as u32)? == bytes {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Initializes a control block on the first boot of an image: the magic
/// word at `base`, then zeroes up to `base + size`. Every store is at
/// most 8 bytes, so none can be corrupted.
///
/// # Errors
///
/// Propagates unmapped-address errors.
pub fn init_control(m: &mut Machine, base: Addr, magic: u32, size: u32) -> Result<()> {
    if m.mem.peek_word(base) != Ok(magic) {
        m.mem.poke_bytes(base, &magic.to_le_bytes())?;
        for off in (4..size).step_by(8) {
            m.mem
                .poke_bytes(base.offset(off), &[0u8; 8][..(size - off).min(8) as usize])?;
        }
    }
    Ok(())
}

/// The sealed-record header for `payload` under sequence number `seq`.
fn seal(seq: u64, payload: &[u8]) -> [u8; DELTA_HEADER as usize] {
    let len = (payload.len() as u32).to_le_bytes();
    let mut h = Crc32::new();
    h.update(&seq.to_le_bytes());
    h.update(&len);
    h.update(payload);
    let mut head = [0u8; DELTA_HEADER as usize];
    head[0..8].copy_from_slice(&seq.to_le_bytes());
    head[8..12].copy_from_slice(&len);
    head[12..16].copy_from_slice(&h.finish().to_le_bytes());
    head
}

/// Stages `payload` as a sealed record under `seq` at `at`: header, then
/// payload, each verified by read-back. Returns whether both landed.
fn stage_sealed(m: &mut Machine, at: Addr, seq: u64, payload: &[u8]) -> Result<bool> {
    Ok(verified_poke(m, at, &seal(seq, payload))?
        && verified_poke(m, at.offset(DELTA_HEADER), payload)?)
}

/// Validates the sealed record at `at`: nonzero sequence, a payload of
/// at least the misc block and at most `max_payload` bytes, matching
/// CRC. Returns `(seq, len)`.
fn open_sealed(m: &Machine, at: Addr, max_payload: u32) -> Result<Option<(u64, u32)>> {
    let head = m.mem.peek_slice(at, DELTA_HEADER)?;
    let (seq, len) = (le_u64(head, 0), le_u32(head, 8));
    if seq == 0 || !(DELTA_MISC..=max_payload).contains(&len) {
        return Ok(None);
    }
    let stored = le_u32(head, 12);
    let payload = m.mem.peek_slice(at.offset(DELTA_HEADER), len)?;
    Ok((le_u32(&seal(seq, payload), 12) == stored).then_some((seq, len)))
}

/// A checkpoint region or full-image part: first byte and length.
pub type Extent = (Addr, u32);

/// What [`Checkpoint::boot`]'s bank selection found published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankChoice {
    /// Nothing was ever published: a plain restart, not a recovery. (A
    /// fully staged bank whose flag never flipped is uncommitted and
    /// must not be restored.)
    None,
    /// Restore from the bank at `addr`, whose sequence number is `seq`.
    Bank {
        /// Bank base address.
        addr: Addr,
        /// The bank's validated sequence number.
        seq: u64,
    },
    /// Neither bank validated: the flag was cleared and a fresh-start
    /// [`TraceEvent::Recovery`] journaled. Restart with globals
    /// re-initialized.
    FreshStart,
}

/// Two full-image banks, each a sealed record of the misc block and the
/// images, plus the words naming the published one. Bank B directly
/// follows bank A; the delta journal directly follows bank B
/// ([`BankPair::journal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankPair {
    /// Bank A (flag value 1).
    pub a: Addr,
    /// Bank B (flag value 2).
    pub b: Addr,
    /// `u32` flag word: 0 = nothing published, 1 = A, 2 = B.
    pub flag: Addr,
    /// `u64` word: sequence number of the last published bank — the
    /// base the delta chain extends.
    pub published_seq: Addr,
    /// Payload cap of a bank: the misc block plus the largest image.
    pub max_payload: u32,
}

impl BankPair {
    /// Banks at `a` and right after it, each with room for images of up
    /// to `max_image` bytes, published through `flag` and
    /// `published_seq`.
    #[must_use]
    pub fn new(a: Addr, flag: Addr, published_seq: Addr, max_image: u32) -> BankPair {
        let max_payload = DELTA_MISC + max_image;
        BankPair {
            a,
            b: a.offset(DELTA_HEADER + max_payload),
            flag,
            published_seq,
            max_payload,
        }
    }

    /// Bytes one bank occupies: header, misc block and image room.
    #[must_use]
    pub fn bank_bytes(&self) -> u32 {
        DELTA_HEADER + self.max_payload
    }

    /// The delta journal: its first byte, right after bank B, and its
    /// capacity in bytes — roomy enough for many small records between
    /// full images, bounded so boot-time chain replay stays O(image).
    #[must_use]
    pub fn journal(&self) -> (Addr, u32) {
        let bank = self.bank_bytes();
        (self.b.offset(bank), (2 * bank).clamp(1_024, 8_192))
    }

    /// Base of bank `which` (1 = A, anything else = B).
    #[must_use]
    pub fn bank(&self, which: u32) -> Addr {
        if which == 1 {
            self.a
        } else {
            self.b
        }
    }

    /// Validates the bank at `bank`: nonzero sequence number, sane
    /// length, matching CRC. Returns the sequence number if valid.
    fn validate(&self, m: &Machine, bank: Addr) -> Result<Option<u64>> {
        Ok(open_sealed(m, bank, self.max_payload)?.map(|(seq, _)| seq))
    }

    /// The higher valid sequence number of the two banks, published or
    /// not (0 if neither validates): the cold floor.
    fn newest_valid_seq(&self, m: &Machine) -> Result<u64> {
        let a = self.validate(m, self.a)?.unwrap_or(0);
        Ok(a.max(self.validate(m, self.b)?.unwrap_or(0)))
    }

    /// Boot-time selection: the published bank if it validates; else the
    /// other valid bank with the highest sequence number (repairing the
    /// flag, journaling a [`TraceEvent::Recovery`]); with neither valid,
    /// the flag is cleared and recovery degrades to a declared fresh
    /// start. A bank newer than the published sequence number was staged
    /// but never published, so it never counts as valid here.
    fn select(&self, m: &mut Machine) -> Result<BankChoice> {
        let flag = m.mem.peek_word(self.flag)?;
        if flag == 0 {
            return Ok(BankChoice::None);
        }
        let published = m.mem.peek_u64(self.published_seq)?;
        let v_a = self.validate(m, self.a)?.filter(|&s| s <= published);
        let v_b = self.validate(m, self.b)?.filter(|&s| s <= published);
        // A corrupt flag validates neither bank: fall through to repair.
        let active = match flag {
            1 => v_a,
            2 => v_b,
            _ => None,
        };
        if let Some(seq) = active {
            return Ok(BankChoice::Bank {
                addr: self.bank(flag),
                seq,
            });
        }
        let best = match (v_a, v_b) {
            (Some(a), Some(b)) if a >= b => Some((1u32, a)),
            (Some(a), None) => Some((1, a)),
            (_, Some(b)) => Some((2, b)),
            (None, None) => None,
        };
        let Some((which, seq)) = best else {
            // Nothing published survives. Forget the published sequence
            // too, and scrub both banks' sequence numbers, so a bank that
            // was staged but never published cannot pass for an older
            // published one after the next publish.
            for word in [self.a, self.b, self.published_seq] {
                m.mem.poke_bytes(word, &0u64.to_le_bytes())?;
            }
            m.mem.poke_bytes(self.flag, &0u32.to_le_bytes())?;
            m.emit(TraceEvent::Recovery {
                invalid_banks: 2,
                fresh_start: true,
            });
            return Ok(BankChoice::FreshStart);
        };
        m.mem.poke_bytes(self.flag, &which.to_le_bytes())?;
        m.emit(TraceEvent::Recovery {
            invalid_banks: 1,
            fresh_start: false,
        });
        Ok(BankChoice::Bank {
            addr: self.bank(which),
            seq,
        })
    }
}

/// What [`Checkpoint::commit`] did with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Published: the new record or bank is the restore point, and a
    /// [`TraceEvent::CheckpointCommit`] carries its payload length.
    Committed,
    /// Brown-out corruption defeated every staging attempt. Nothing was
    /// charged or published: the previous checkpoint stands.
    VerifyAbort,
    /// The energy budget could not cover the commit: its cost was
    /// charged, the device is about to brown out, and the previous
    /// checkpoint stands.
    EnergyAbort,
}

/// What [`Checkpoint::boot`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// Nothing to restore: [`BankChoice::None`] or
    /// [`BankChoice::FreshStart`]. The next commit is a full image.
    Restart(BankChoice),
    /// A bank was restored, the chain extending it replayed, and the
    /// restore charged and journaled.
    Restored {
        /// The last published misc block.
        misc: Misc,
    },
}

/// A staged, verified, not yet published commit.
#[derive(Debug, Clone, Copy)]
struct Staged {
    /// Sequence number the stage used up.
    seq: u64,
    /// The record's payload length.
    len: u32,
    /// `Some(flag value that publishes it)` for a full bank, `None` for
    /// a delta record.
    bank: Option<u32>,
}

/// The delta chain and its write cursor.
#[derive(Debug, Default)]
struct DeltaChain {
    /// First byte of the journal region.
    journal: Addr,
    /// Journal length in bytes.
    capacity: u32,
    /// `u64` word: last published record's sequence (0 = none).
    tip_word: Addr,
    /// Staging offset for the next record (end of the valid chain).
    write_off: u32,
    /// Next commit sequence number (shared by banks and records); 0 =
    /// cold. Only a verified stage uses its number up: an unverified one
    /// is never published, and skipping its number would leave a gap
    /// that [`DeltaChain::resume`], which requires consecutive records,
    /// reads as a lost record.
    next_seq: u64,
    /// First checkpoint region of the published bank the chain extends:
    /// records are appended only while the caller checkpoints the same
    /// regions.
    anchor: Option<(Addr, u32)>,
    /// Reusable staging buffer.
    scratch: Vec<u8>,
}

impl DeltaChain {
    /// Primes a cold cursor without walking the chain: the next sequence
    /// number is past the newest valid bank and the tip, and the chain
    /// is unanchored, so the next commit is a full image.
    fn prime_cold(&mut self, m: &Machine, banks: &BankPair) -> Result<()> {
        let floor = banks.newest_valid_seq(m)?;
        let tip = m.mem.peek_u64(self.tip_word)?;
        self.prime(floor.max(tip) + 1, 0, None);
        Ok(())
    }

    fn prime(&mut self, next_seq: u64, write_off: u32, anchor: Option<(Addr, u32)>) {
        self.next_seq = next_seq;
        self.write_off = write_off;
        self.anchor = anchor;
    }

    /// Stages one commit over the checkpoint `regions` (the first is the
    /// chain's anchor). A delta record is taken when the chain is
    /// anchored on these very regions, the record fits under the chain's
    /// byte cap, and it is meaningfully smaller than a full image of
    /// `full_bytes`; otherwise a full bank of `misc` plus `images` goes
    /// to the inactive bank. `None` if read-back verification refused
    /// the stage (a full bank is also refused while the flag word is
    /// corrupt).
    ///
    /// The chain is capped at about one full image: every boot replays
    /// the whole chain after the full-image restore, so an unbounded
    /// chain would inflate the restore charge past what a short
    /// on-period can cover — the livelock incremental checkpointing
    /// exists to prevent.
    fn stage(
        &mut self,
        m: &mut Machine,
        banks: &BankPair,
        full_bytes: u32,
        misc: &Misc,
        regions: &[(Addr, u32)],
        images: &[(Addr, u32)],
    ) -> Result<Option<Staged>> {
        let dirty: u32 = regions
            .iter()
            .map(|&(start, len)| m.mem.count_dirty_words(start, len))
            .sum();
        let plen = DELTA_MISC + 8 * dirty;
        let seq = self.next_seq;
        let cap = self.capacity.min(full_bytes.max(512));
        let (at, bank) = if self.anchor == regions.first().copied()
            && self.write_off + DELTA_HEADER + plen <= cap
            && 4 * plen < 3 * full_bytes
        {
            self.build_delta(m, misc, regions);
            (self.journal.offset(self.write_off), None)
        } else {
            let flag = m.mem.peek_word(banks.flag)?;
            // A corrupt flag no longer names the published bank, so the
            // stage could overwrite it: refuse until a boot repairs the
            // flag.
            if flag > 2 {
                return Ok(None);
            }
            let target = if flag == 1 { 2 } else { 1 };
            self.build_bank(m, misc, images)?;
            (banks.bank(target), Some(target))
        };
        if !stage_sealed(m, at, seq, &self.scratch)? {
            return Ok(None);
        }
        self.next_seq += 1;
        Ok(Some(Staged {
            seq,
            len: self.scratch.len() as u32,
            bank,
        }))
    }

    /// Builds a bank payload: `misc`, then each of `images` copied out of
    /// memory.
    fn build_bank(&mut self, m: &Machine, misc: &Misc, images: &[(Addr, u32)]) -> Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(misc);
        for &(start, len) in images.iter().filter(|&&(_, len)| len > 0) {
            self.scratch
                .extend_from_slice(m.mem.peek_slice(start, len)?);
        }
        Ok(())
    }

    /// Builds a delta payload: `misc`, then one `(address, value)` entry
    /// per dirty word. Words straddling a region edge are clamped — the
    /// entry address is the first in-region byte and the value carries
    /// only in-region bytes, zero-padded — so replay, which clamps
    /// identically against the same regions, never writes outside them.
    fn build_delta(&mut self, m: &Machine, misc: &Misc, regions: &[(Addr, u32)]) {
        let out = &mut self.scratch;
        out.clear();
        out.extend_from_slice(misc);
        for &(start, len) in regions {
            let end = start.raw() + len;
            m.mem.for_each_dirty_word(start, len, |w| {
                let lo = w.raw().max(start.raw());
                let n = (w.raw() + 4).min(end) - lo;
                let src = m
                    .mem
                    .peek_slice(Addr(lo), n)
                    .expect("dirty word inside a mapped checkpoint region");
                let mut val = [0u8; 4];
                val[..n as usize].copy_from_slice(src);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&val);
            });
        }
    }

    /// Publishes a verified stage with ≤ 8-byte stores — the tip word for
    /// a record; the flag, then an empty chain anchored on `regions`, for
    /// a bank — and marks `regions` clean.
    fn publish(
        &mut self,
        m: &mut Machine,
        banks: &BankPair,
        staged: &Staged,
        regions: &[(Addr, u32)],
    ) -> Result<()> {
        if let Some(target) = staged.bank {
            m.mem.poke_bytes(banks.flag, &target.to_le_bytes())?;
            m.mem
                .poke_bytes(banks.published_seq, &staged.seq.to_le_bytes())?;
            m.mem.poke_bytes(self.tip_word, &0u64.to_le_bytes())?;
            self.write_off = 0;
            self.anchor = regions.first().copied();
        } else {
            m.mem.poke_bytes(self.tip_word, &staged.seq.to_le_bytes())?;
            self.write_off += DELTA_HEADER + staged.len;
        }
        for &(start, len) in regions {
            m.mem.clear_dirty(start, len);
        }
        Ok(())
    }

    /// Reads the (validated) bank at `bank`: returns its misc block and
    /// payload length, and keeps its image bytes for
    /// [`DeltaChain::restore_images`].
    fn load(&mut self, m: &Machine, bank: Addr) -> Result<(Misc, u32)> {
        let len = m.mem.peek_word(bank.offset(8))?;
        let payload = m.mem.peek_slice(bank.offset(DELTA_HEADER), len)?;
        let (misc, image) = payload.split_at(DELTA_MISC as usize);
        self.scratch.clear();
        self.scratch.extend_from_slice(image);
        Ok((misc.try_into().expect("misc block"), len))
    }

    /// Writes the loaded image back over `images`, in order, with
    /// read-back verification. Returns `false` if corruption defeated it.
    fn restore_images(&self, m: &mut Machine, images: &[(Addr, u32)]) -> Result<bool> {
        let mut off = 0;
        for &(start, len) in images.iter().filter(|&&(_, len)| len > 0) {
            let end = off + len as usize;
            if !verified_poke(m, start, &self.scratch[off..end])? {
                return Ok(false);
            }
            off = end;
        }
        Ok(true)
    }

    /// Resumes the chain after the bank of `banks` with sequence
    /// `bank_seq` was restored over `regions` (which wiped every
    /// unpublished store).
    ///
    /// If the chain extends that bank, its records are validated and
    /// replayed in order `bank_seq + 1 ..= tip`, and the last valid
    /// record's misc block replaces `misc`. A record that fails
    /// validation ends the walk at the longest valid prefix — itself a
    /// published checkpoint — with a journaled [`TraceEvent::Recovery`].
    /// A chain of another bank generation (after a fallback to the
    /// older bank) is ignored. The cursor is primed to extend the chain
    /// only if it was intact; otherwise the next commit is a full image.
    /// Marks `regions` clean and returns the record bytes replayed, as
    /// stored and as payload.
    fn resume(
        &mut self,
        m: &mut Machine,
        banks: &BankPair,
        bank_seq: u64,
        regions: &[(Addr, u32)],
        misc: &mut Misc,
    ) -> Result<(u32, u32)> {
        let chain_base = m.mem.peek_u64(banks.published_seq)?;
        let tip = m.mem.peek_u64(self.tip_word)?;
        let (mut off, mut last, mut intact) = (0u32, bank_seq, chain_base == bank_seq);
        let mut payload = 0;
        while intact && last < tip {
            let Some(len) = self.validate_record(m, off, last + 1)? else {
                m.emit(TraceEvent::Recovery {
                    invalid_banks: 1,
                    fresh_start: false,
                });
                intact = false;
                break;
            };
            let rec = self.journal.offset(off + DELTA_HEADER);
            misc.copy_from_slice(m.mem.peek_slice(rec, DELTA_MISC)?);
            for p in (DELTA_MISC..len).step_by(8) {
                let e = m.mem.peek_slice(rec.offset(p), 8)?;
                let (lo, val) = (le_u32(e, 0), le_u32(e, 4).to_le_bytes());
                let hit = regions
                    .iter()
                    .find(|&&(start, len)| lo >= start.raw() && lo < start.raw() + len);
                if let Some(&(start, len)) = hit {
                    let n = ((lo & !3) + 4).min(start.raw() + len) - lo;
                    m.mem.poke_bytes(Addr(lo), &val[..n as usize])?;
                }
            }
            last += 1;
            off += DELTA_HEADER + len;
            payload += len;
        }
        let next = bank_seq.max(chain_base).max(tip).max(last) + 1;
        self.prime(next, off, regions.first().copied().filter(|_| intact));
        for &(start, len) in regions {
            m.mem.clear_dirty(start, len);
        }
        Ok((off, payload))
    }

    /// Validates the record at journal offset `off`: a sealed record in
    /// bounds, sequence exactly `expected`, and structurally a delta
    /// payload (misc block plus whole 8-byte entries). Returns the
    /// payload length.
    fn validate_record(&self, m: &Machine, off: u32, expected: u64) -> Result<Option<u32>> {
        if off + DELTA_HEADER > self.capacity {
            return Ok(None);
        }
        let room = self.capacity - off - DELTA_HEADER;
        Ok(match open_sealed(m, self.journal.offset(off), room)? {
            Some((seq, len)) if seq == expected && (len - DELTA_MISC).is_multiple_of(8) => {
                Some(len)
            }
            _ => None,
        })
    }
}

/// A [`BankPair`] plus its delta chain: the one commit and boot sequence
/// of every hardened runtime.
///
/// The persistent truth is the banks, their flag and published-sequence
/// words, the chain's tip word and its records. The cursor held here
/// (next sequence number, write offset, anchor) is rebuilt from them at
/// every boot, so it carries no state a real MCU would lose at a power
/// failure.
#[derive(Debug, Default)]
pub struct Checkpoint {
    banks: Option<BankPair>,
    chain: DeltaChain,
}

impl Checkpoint {
    /// Places `banks`, their [`BankPair::journal`] and the chain's `u64`
    /// tip word.
    pub fn place(&mut self, banks: BankPair, tip_word: Addr) {
        let (journal, capacity) = banks.journal();
        self.chain.journal = journal;
        self.chain.capacity = capacity;
        self.chain.tip_word = tip_word;
        self.banks = Some(banks);
    }

    /// The placed banks (`None` before [`Checkpoint::place`]).
    #[must_use]
    pub fn banks(&self) -> Option<BankPair> {
        self.banks
    }

    /// Forgets placement and cursor, keeping the staging allocation —
    /// for a runtime recycled onto a fresh device.
    pub fn recycle(&mut self) {
        self.banks = None;
        let scratch = std::mem::take(&mut self.chain.scratch);
        self.chain = DeltaChain {
            scratch,
            ..DeltaChain::default()
        };
    }

    fn placed(&self) -> Result<BankPair> {
        self.banks
            .ok_or_else(|| VmError::Load("checkpoint used before its banks were placed".into()))
    }

    /// Commits one checkpoint over `regions`, two-phase (§4), in a
    /// [`SpanKind::Checkpoint`] span. `(regions, images)` is the pair
    /// [`Checkpoint::boot`]'s `regions_of_misc` maps a misc block back
    /// to. Stages a delta record, or a full bank of `misc` plus `images`
    /// (see `full_bytes` below); if read-back verification accepted it,
    /// charges `cost(costs, delta)` — `delta` is a delta record's payload
    /// bytes, `None` for a full bank — atomically against the energy
    /// deadline; if the charge completes, publishes it, marks `regions`
    /// clean and emits a [`TraceEvent::CheckpointCommit`] of `cause` and
    /// the published record's payload bytes.
    ///
    /// A delta record is taken while the chain is anchored on these very
    /// regions (the first is the anchor), fits the chain's byte cap of
    /// about one full image, and is under 75% of a full image of
    /// `full_bytes`.
    ///
    /// # Errors
    ///
    /// Propagates unmapped-address errors.
    pub fn commit(
        &mut self,
        m: &mut Machine,
        cause: CkptCause,
        misc: &Misc,
        full_bytes: u32,
        (regions, images): (&[Extent], &[Extent]),
        cost: impl FnOnce(&CostModel, Option<u32>) -> u64,
    ) -> Result<CommitOutcome> {
        let banks = self.placed()?;
        let mut span = m.span(SpanKind::Checkpoint);
        let m = &mut *span;
        if self.chain.next_seq == 0 {
            self.chain.prime_cold(m, &banks)?;
        }
        let Some(staged) = self
            .chain
            .stage(m, &banks, full_bytes, misc, regions, images)?
        else {
            return Ok(CommitOutcome::VerifyAbort);
        };
        let delta = staged.bank.is_none().then_some(staged.len);
        let cost = cost(m.mem.costs(), delta);
        if !m.charge_atomic(cost) {
            return Ok(CommitOutcome::EnergyAbort);
        }
        self.chain.publish(m, &banks, &staged, regions)?;
        m.emit(TraceEvent::CheckpointCommit {
            cause,
            bytes: u64::from(staged.len),
        });
        Ok(CommitOutcome::Committed)
    }

    /// Boots from the last published checkpoint. Selects a bank (falling
    /// back to the older valid bank or a declared fresh start, each
    /// journaled as a [`TraceEvent::Recovery`]) and loads it;
    /// `regions_of_misc` maps the machine and the bank's misc block to
    /// the checkpoint regions and the full-image parts, in bank order.
    /// The images are written back first, wiping every unpublished store
    /// in them, then the chain extending the bank is replayed over the
    /// regions. Then, in a [`SpanKind::Restore`] span, the restore is
    /// charged `restore_cost(costs, restored)` atomically — `restored` is
    /// the images plus the replayed records as stored, headers included
    /// (a restore past the energy deadline dies before any instruction
    /// runs) — and a [`TraceEvent::Restore`] of the payload read back is
    /// emitted. With nothing to restore, the cursor is primed cold and
    /// nothing is charged.
    ///
    /// # Errors
    ///
    /// A trap if corruption defeated the read-back verification of the
    /// image restore; unmapped-address errors.
    pub fn boot<const R: usize, const I: usize>(
        &mut self,
        m: &mut Machine,
        regions_of_misc: impl FnOnce(&Machine, &Misc) -> ([Extent; R], [Extent; I]),
        restore_cost: impl FnOnce(&CostModel, u32) -> u64,
    ) -> Result<Boot> {
        let banks = self.placed()?;
        let (bank, seq) = match banks.select(m)? {
            BankChoice::Bank { addr, seq } => (addr, seq),
            choice => {
                self.chain.prime_cold(m, &banks)?;
                return Ok(Boot::Restart(choice));
            }
        };
        let (mut misc, bank_len) = self.chain.load(m, bank)?;
        let (regions, images) = regions_of_misc(m, &misc);
        if !self.chain.restore_images(m, &images)? {
            return Err(VmError::Trap(
                "checkpoint restore failed read-back verification".into(),
            ));
        }
        let (stored, payload) = self.chain.resume(m, &banks, seq, &regions, &mut misc)?;
        let image: u32 = images.iter().map(|&(_, len)| len).sum();
        let mut span = m.span(SpanKind::Restore);
        let m = &mut *span;
        let cost = restore_cost(m.mem.costs(), image + stored);
        let _completed = m.charge_atomic(cost);
        m.emit(TraceEvent::Restore {
            bytes: u64::from(bank_len + payload),
        });
        Ok(Boot::Restored { misc })
    }
}

/// A persistent undo log: `capacity` 8-byte `(u32 addr, u32 old value)`
/// slots at `slots`, and the entry count in the `u32` at `count_word`,
/// persisted after every change so a reboot rolls back exactly the
/// appends that preceded the power failure. `len` caches that word;
/// [`UndoLog::load`] rereads it at boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoLog {
    slots: Addr,
    capacity: u32,
    count_word: Addr,
    len: u32,
}

impl UndoLog {
    /// An empty log of `capacity` slots at `slots`, counted in the word
    /// at `count_word`.
    #[must_use]
    pub fn new(slots: Addr, capacity: u32, count_word: Addr) -> UndoLog {
        UndoLog {
            slots,
            capacity,
            count_word,
            len: 0,
        }
    }

    /// Rereads the persisted entry count.
    ///
    /// # Errors
    ///
    /// Propagates unmapped-address errors.
    pub fn load(&mut self, m: &Machine) -> Result<()> {
        self.len = m.mem.peek_word(self.count_word)?;
        Ok(())
    }

    /// Live entries: the mark [`UndoLog::rollback_to`] returns to.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the log holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether no slot is left for [`UndoLog::append`].
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    fn set_len(&mut self, m: &mut Machine, n: u32) -> Result<()> {
        self.len = n;
        m.mem.poke_bytes(self.count_word, &n.to_le_bytes())?;
        Ok(())
    }

    /// Logs the old word at `addr` before a `len`-byte store overwrites
    /// it, in a [`SpanKind::UndoLog`] span charged `undo_log_cost(len)`
    /// and journaled as a [`TraceEvent::UndoAppend`].
    ///
    /// # Errors
    ///
    /// A trap that writes nothing when the log is full (what to do
    /// instead is the caller's policy); unmapped-address errors.
    pub fn append(&mut self, m: &mut Machine, addr: Addr, len: u32) -> Result<()> {
        if self.is_full() {
            return Err(VmError::Trap(format!(
                "undo log full ({} entries)",
                self.capacity
            )));
        }
        let mut span = m.span(SpanKind::UndoLog);
        let m = &mut *span;
        let old = m.mem.peek_word(addr)?;
        let slot = self.slots.offset(8 * self.len);
        m.mem.poke_bytes(slot, &addr.raw().to_le_bytes())?;
        m.mem.poke_bytes(slot.offset(4), &old.to_le_bytes())?;
        self.set_len(m, self.len + 1)?;
        m.mem.add_cycles(m.mem.costs().undo_log_cost(len));
        m.emit(TraceEvent::UndoAppend {
            bytes: u64::from(len),
        });
        Ok(())
    }

    /// Restores the old word of every entry from `mark` up, newest first
    /// (so a twice-logged word gets its oldest value), in a
    /// [`SpanKind::Rollback`] span charged `rollback_cost(4)` and
    /// journaled as a [`TraceEvent::Rollback`] per entry; then persists
    /// `mark` as the count.
    ///
    /// # Errors
    ///
    /// Propagates unmapped-address errors.
    pub fn rollback_to(&mut self, m: &mut Machine, mark: u32) -> Result<()> {
        let mut span = m.span(SpanKind::Rollback);
        let m = &mut *span;
        for i in (mark..self.len).rev() {
            let slot = self.slots.offset(8 * i);
            let addr = Addr(m.mem.peek_word(slot)?);
            let old = m.mem.peek_word(slot.offset(4))?;
            m.mem.poke_bytes(addr, &old.to_le_bytes())?;
            m.mem.add_cycles(m.mem.costs().rollback_cost(4));
            m.emit(TraceEvent::Rollback { bytes: 4 });
        }
        self.set_len(m, mark)
    }

    /// Empties the log: the stores it guarded are committed.
    ///
    /// # Errors
    ///
    /// Propagates unmapped-address errors.
    pub fn clear(&mut self, m: &mut Machine) -> Result<()> {
        self.set_len(m, 0)
    }
}
