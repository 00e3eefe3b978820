//! Transactional peripheral driver: a journaled exactly-once layer for
//! wire I/O under intermittent power.
//!
//! The torn-wire problem (§2 of the paper, generalized): a power failure
//! can strike *between* the bytes of a multi-byte UART frame or I2C
//! transaction. The MCU reboots with empty FIFOs, but the device on the
//! other end of the wire remembers every byte it already received —
//! external state cannot be rolled back by a checkpoint. Replaying from
//! the last checkpoint then re-drives the same bytes, duplicating side
//! effects; skipping blindly silently drops the transaction.
//!
//! [`TxDriver`] closes the gap with a small FRAM **transaction journal**
//! at the top of FRAM, using the same two-phase discipline as the
//! checkpoint banks: a CRC-stamped descriptor (id, attempt counter) is
//! staged with read-back verification
//! ([`persist::verified_poke`](crate::persist::verified_poke)), then a
//! *single atomic word* flips
//! the slot state (`inflight` → `committed`). Single-word stores are
//! never torn or corrupted ([`tics_mcu::ATOMIC_STORE_BYTES`]), so the
//! journal is itself crash-consistent.
//!
//! At every boot, [`TxDriver::reconcile`] classifies what the previous
//! life left behind:
//!
//! * `committed` — the transaction finished; a replayed `tx_begin`
//!   returns the *skip* sentinel so the program does not re-drive the
//!   wire.
//! * `inflight` — the wire may hold a half frame. The attempt counter is
//!   bumped and the transaction becomes **retryable** after a seeded
//!   exponential backoff ([`BackoffPolicy`]), charged as busy-wait
//!   cycles.
//! * attempts exhausted — the slot is **poisoned**: the driver gives up
//!   loudly (graceful degradation; the receiver sees a gap, never a
//!   duplicate).
//!
//! Runtimes opt in by returning `Some` from
//! [`IntermittentRuntime::tx_driver`](crate::IntermittentRuntime::tx_driver);
//! the naive baseline does not, which is exactly the un-hardened control
//! the `exp_periph` experiment needs.

use tics_mcu::{splitmix64, Addr, Crc32};
use tics_trace::{SpanKind, TraceEvent};

use crate::error::VmError;
use crate::machine::Machine;
use crate::persist::verified_poke;
use crate::Result;

/// Journal capacity: concurrent live descriptors (one in flight plus
/// recently committed ids kept for replay detection).
pub const TXJ_SLOTS: u32 = 8;
/// Bytes per journal slot: id, attempts, CRC, state word.
pub const TXJ_SLOT_BYTES: u32 = 16;
/// Total journal footprint at the top of FRAM (slots + high-water word
/// + reserved word).
pub const TXJ_BYTES: u32 = TXJ_SLOTS * TXJ_SLOT_BYTES + 8;

/// Slot states. The state word lives *outside* the descriptor CRC and is
/// only ever changed by single-word (atomic, corruption-immune) stores —
/// the flag-flip-last discipline of the checkpoint banks.
const ST_EMPTY: u32 = 0;
const ST_INFLIGHT: u32 = 1;
const ST_COMMITTED: u32 = 2;
const ST_POISONED: u32 = 3;

/// Offsets within a slot.
const SLOT_ID: u32 = 0;
const SLOT_ATTEMPTS: u32 = 4;
const SLOT_CRC: u32 = 8;
const SLOT_STATE: u32 = 12;

/// Flat cycle cost of scanning the journal (`tx_begin` / reconcile).
const JOURNAL_SCAN_CYCLES: u64 = 48;

/// `tx_begin` result: proceed with this attempt number (≥ 0).
pub const TX_PROCEED: i32 = 0;
/// `tx_begin` result: already committed in a previous life — skip.
pub const TX_SKIP_COMMITTED: i32 = -1;
/// `tx_begin` result: retry budget exhausted — skip (degraded).
pub const TX_SKIP_POISONED: i32 = -2;

/// Seeded exponential backoff with bounded jitter.
///
/// The delay for attempt `a` is `base_us << min(a, cap)` plus a
/// deterministic jitter strictly below `base_us / 4`, so delays are
/// strictly monotone in the attempt number for `a ≤ cap` and fully
/// reproducible under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay in µs (= cycles at the 1 MHz clock).
    pub base_us: u64,
    /// Exponent cap: delays stop doubling past this attempt.
    pub cap: u32,
    /// Attempts after which a transaction is poisoned.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_us: 100,
            cap: 5,
            max_attempts: 6,
        }
    }
}

impl BackoffPolicy {
    /// Backoff delay in µs before retry number `attempt` (1-based: the
    /// first retry is attempt 1) of transaction `id` under `seed`.
    #[must_use]
    pub fn delay_us(&self, seed: u64, id: u32, attempt: u32) -> u64 {
        let exp = attempt.min(self.cap);
        let base = self.base_us << exp;
        let jitter_span = (self.base_us / 4).max(1);
        let jitter = splitmix64(seed ^ (u64::from(id) << 32) ^ u64::from(attempt)) % jitter_span;
        base + jitter
    }

    /// Total worst-case busy-wait budget across the full retry schedule,
    /// in µs — the experiment's timeout bound for one transaction.
    #[must_use]
    pub fn budget_us(&self) -> u64 {
        (1..self.max_attempts)
            .map(|a| (self.base_us << a.min(self.cap)) + self.base_us / 4)
            .sum()
    }
}

/// One decoded journal slot (host-side view).
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    attempts: u32,
    state: u32,
    /// CRC over (id, attempts) matched the stored value.
    valid: bool,
}

/// The journaled transaction driver. One instance per runtime; all
/// persistent state lives in the machine's FRAM, so the host-side struct
/// only mirrors the currently open transaction.
#[derive(Debug, Clone, Default)]
pub struct TxDriver {
    /// Retry/backoff policy.
    pub policy: BackoffPolicy,
    /// Currently open transaction id (host-side mirror; volatile by
    /// design — a reboot clears it and reconcile re-derives the truth
    /// from FRAM).
    active: Option<u32>,
    /// Attempt number of the active transaction.
    attempt: u32,
    /// Jitter seed, latched from the machine at reconcile time.
    seed: u64,
}

impl TxDriver {
    /// Whether a transaction is currently open (between `tx_begin` and
    /// `tx_commit`). The executor suppresses checkpoints while this
    /// holds — a checkpoint *inside* a transaction would make replay
    /// re-drive wire bytes under the same attempt number.
    #[must_use]
    pub fn in_txn(&self) -> bool {
        self.active.is_some()
    }

    /// Forgets all host-side transaction state (policy kept), returning
    /// the driver to its as-constructed state for a recycled machine.
    /// The FRAM journal itself is wiped by [`crate::Machine::reset`].
    pub fn recycle(&mut self) {
        self.active = None;
        self.attempt = 0;
        self.seed = 0;
    }

    /// Base address of the journal: the top `TXJ_BYTES` of FRAM, above
    /// every runtime area (which grow upward from the heap).
    fn base(m: &Machine) -> Addr {
        Addr(m.mem.layout().fram.end.raw() - TXJ_BYTES)
    }

    fn slot_addr(m: &Machine, idx: u32) -> Addr {
        Self::base(m).offset(idx * TXJ_SLOT_BYTES)
    }

    fn high_water_addr(m: &Machine) -> Addr {
        Self::base(m).offset(TXJ_SLOTS * TXJ_SLOT_BYTES)
    }

    fn descriptor_crc(id: u32, attempts: u32) -> u32 {
        let mut h = Crc32::new();
        h.update(&id.to_le_bytes());
        h.update(&attempts.to_le_bytes());
        h.finish()
    }

    fn read_slot(m: &Machine, idx: u32) -> Result<Slot> {
        let a = Self::slot_addr(m, idx);
        let b = m.mem.peek_slice(a, TXJ_SLOT_BYTES)?;
        let word = |o: u32| {
            let o = o as usize;
            u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
        };
        let id = word(SLOT_ID);
        let attempts = word(SLOT_ATTEMPTS);
        Ok(Slot {
            id,
            attempts,
            state: word(SLOT_STATE),
            valid: word(SLOT_CRC) == Self::descriptor_crc(id, attempts),
        })
    }

    /// Stages a descriptor (id, attempts, CRC) into slot `idx` with
    /// read-back verification; the state word is untouched. Traps if the
    /// corruption model defeats every attempt — the journal must never
    /// hold an unverified descriptor.
    fn write_descriptor(m: &mut Machine, idx: u32, id: u32, attempts: u32) -> Result<()> {
        let mut bytes = [0u8; 12];
        bytes[0..4].copy_from_slice(&id.to_le_bytes());
        bytes[4..8].copy_from_slice(&attempts.to_le_bytes());
        bytes[8..12].copy_from_slice(&Self::descriptor_crc(id, attempts).to_le_bytes());
        if !verified_poke(m, Self::slot_addr(m, idx), &bytes)? {
            return Err(VmError::Trap(format!(
                "tx journal descriptor write for id {id} failed read-back verification"
            )));
        }
        m.mem.add_cycles(12);
        Ok(())
    }

    /// Boot-time reconciliation: classifies every descriptor the previous
    /// life left in flight as retryable (bump attempts, charge backoff)
    /// or poisoned (budget exhausted). Called by the executor right after
    /// `on_boot`, for every runtime that exposes a driver, under both
    /// dispatch engines.
    pub fn reconcile(&mut self, m: &mut Machine) -> Result<()> {
        self.active = None;
        self.attempt = 0;
        self.seed = splitmix64(m.periph.i2c.seed() ^ 0xBACC_0FF5_EED0_0001);
        let mut span = m.span(SpanKind::Driver);
        let m = &mut *span;
        m.mem.add_cycles(JOURNAL_SCAN_CYCLES);
        for idx in 0..TXJ_SLOTS {
            let slot = Self::read_slot(m, idx)?;
            if slot.state != ST_INFLIGHT {
                continue;
            }
            if !slot.valid {
                // A descriptor can only reach `inflight` after read-back
                // verification, so an invalid one means in-place damage.
                // Poison it: never retry what cannot be identified.
                m.mem
                    .write_word(Self::slot_addr(m, idx).offset(SLOT_STATE), ST_POISONED)?;
                m.emit(TraceEvent::TxnPoisoned { id: slot.id });
                continue;
            }
            let attempts = slot.attempts + 1;
            if attempts >= self.policy.max_attempts {
                m.mem
                    .write_word(Self::slot_addr(m, idx).offset(SLOT_STATE), ST_POISONED)?;
                m.emit(TraceEvent::TxnPoisoned { id: slot.id });
            } else {
                Self::write_descriptor(m, idx, slot.id, attempts)?;
                let backoff = self.policy.delay_us(self.seed, slot.id, attempts);
                m.mem.add_cycles(backoff);
                m.emit(TraceEvent::TxnRetry {
                    id: slot.id,
                    attempt: attempts,
                    backoff,
                });
            }
        }
        Ok(())
    }

    /// Opens transaction `id`. Returns the attempt number to tag wire
    /// traffic with (≥ 0), [`TX_SKIP_COMMITTED`] if a previous life
    /// already committed it (replay — skip without touching the wire), or
    /// [`TX_SKIP_POISONED`] if the retry budget is exhausted.
    pub fn begin(&mut self, m: &mut Machine, id: u32) -> Result<i32> {
        let mut span = m.span(SpanKind::Driver);
        let m = &mut *span;
        m.mem.add_cycles(JOURNAL_SCAN_CYCLES);
        let mut free: Option<u32> = None;
        let mut evict: Option<(u32, u32)> = None; // (slot idx, id)
        for idx in 0..TXJ_SLOTS {
            let slot = Self::read_slot(m, idx)?;
            if slot.valid && slot.state != ST_EMPTY {
                if slot.id == id {
                    return match slot.state {
                        ST_COMMITTED => {
                            m.emit(TraceEvent::TxnSkip { id });
                            Ok(TX_SKIP_COMMITTED)
                        }
                        ST_POISONED => {
                            m.emit(TraceEvent::TxnSkip { id });
                            Ok(TX_SKIP_POISONED)
                        }
                        // Inflight: this is the retry of an interrupted
                        // transaction (reconcile already bumped and
                        // backed off). Resume under the new attempt.
                        _ => {
                            self.active = Some(id);
                            self.attempt = slot.attempts;
                            m.emit(TraceEvent::TxnBegin { id });
                            Ok(slot.attempts as i32)
                        }
                    };
                }
                if slot.state != ST_INFLIGHT && evict.is_none_or(|(_, eid)| slot.id < eid) {
                    evict = Some((idx, slot.id));
                }
            } else if free.is_none() {
                free = Some(idx);
            }
        }
        // No descriptor for this id. If the id is at or below the
        // journal's high-water mark, its slot was recycled — it must have
        // finished in a previous life (ids are begun in increasing
        // order), so a replay skips it.
        let hw = m.mem.read_word(Self::high_water_addr(m))?;
        if id <= hw && hw != 0 {
            m.emit(TraceEvent::TxnSkip { id });
            return Ok(TX_SKIP_COMMITTED);
        }
        let idx = free
            .or(evict.map(|(i, _)| i))
            .ok_or_else(|| VmError::Trap("tx journal full of inflight descriptors".into()))?;
        // Recycle: clear the state word first so a cut mid-staging
        // leaves a dead slot, not a chimera of old state and new id.
        m.mem
            .write_word(Self::slot_addr(m, idx).offset(SLOT_STATE), ST_EMPTY)?;
        Self::write_descriptor(m, idx, id, 0)?;
        // Flag-flip-last: one atomic word arms the descriptor.
        m.mem
            .write_word(Self::slot_addr(m, idx).offset(SLOT_STATE), ST_INFLIGHT)?;
        if id > hw {
            m.mem.write_word(Self::high_water_addr(m), id)?;
        }
        self.active = Some(id);
        self.attempt = 0;
        m.emit(TraceEvent::TxnBegin { id });
        Ok(0)
    }

    /// Commits transaction `id`: a single atomic state-word flip, the
    /// point of no return. After this, replays of `tx_begin(id)` skip.
    pub fn commit(&mut self, m: &mut Machine, id: u32) -> Result<()> {
        if self.active != Some(id) {
            return Err(VmError::Trap(format!(
                "tx_commit({id}) without matching open transaction"
            )));
        }
        let mut span = m.span(SpanKind::Driver);
        let m = &mut *span;
        m.mem.add_cycles(JOURNAL_SCAN_CYCLES);
        for idx in 0..TXJ_SLOTS {
            let slot = Self::read_slot(m, idx)?;
            if slot.valid && slot.id == id && slot.state == ST_INFLIGHT {
                m.mem
                    .write_word(Self::slot_addr(m, idx).offset(SLOT_STATE), ST_COMMITTED)?;
                self.active = None;
                m.emit(TraceEvent::TxnCommit { id });
                return Ok(());
            }
        }
        Err(VmError::Trap(format!(
            "tx_commit({id}) found no inflight journal descriptor"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use tics_minic::{compile, opt::OptLevel};

    fn machine() -> Machine {
        let prog = compile("int main() { return 0; }", OptLevel::O0).unwrap();
        Machine::new(prog, MachineConfig::default()).unwrap()
    }

    // ---- BackoffPolicy properties (seeded, exhaustive over a grid) ----

    #[test]
    fn backoff_delays_strictly_monotone_up_to_cap() {
        let p = BackoffPolicy::default();
        for seed in [0u64, 1, 0x5EED, u64::MAX, 0xDEAD_BEEF_CAFE] {
            for id in [1u32, 7, 1000, u32::MAX] {
                let delays: Vec<u64> = (1..=p.cap).map(|a| p.delay_us(seed, id, a)).collect();
                for w in delays.windows(2) {
                    assert!(
                        w[1] > w[0],
                        "backoff not strictly monotone: {delays:?} (seed {seed:#x}, id {id})"
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_jitter_stays_below_quarter_base() {
        let p = BackoffPolicy::default();
        for seed in 0u64..200 {
            for attempt in 1..=p.max_attempts {
                let d = p.delay_us(seed, 3, attempt);
                let floor = p.base_us << attempt.min(p.cap);
                assert!(d >= floor);
                assert!(d < floor + p.base_us / 4 + 1);
            }
        }
    }

    #[test]
    fn backoff_deterministic_under_fixed_seed() {
        let p = BackoffPolicy::default();
        for id in 0..50u32 {
            for attempt in 1..=p.max_attempts {
                assert_eq!(
                    p.delay_us(42, id, attempt),
                    p.delay_us(42, id, attempt),
                    "same (seed, id, attempt) must give the same delay"
                );
            }
        }
        // ...and different seeds must actually move the jitter somewhere.
        let varied = (0..64u64)
            .map(|s| p.delay_us(s, 9, 2))
            .collect::<std::collections::HashSet<_>>();
        assert!(varied.len() > 1, "jitter ignored the seed");
    }

    #[test]
    fn backoff_budget_covers_full_schedule() {
        let p = BackoffPolicy::default();
        let worst: u64 = (1..p.max_attempts)
            .map(|a| p.delay_us(u64::MAX, u32::MAX, a))
            .max()
            .unwrap();
        assert!(worst <= p.budget_us());
        assert!(
            p.budget_us() < 50_000,
            "budget must stay a small fraction of a second"
        );
    }

    // ---- Journal behavior on a real machine ----

    #[test]
    fn begin_commit_then_replay_skips() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        assert_eq!(d.begin(&mut m, 1).unwrap(), 0);
        assert!(d.in_txn());
        d.commit(&mut m, 1).unwrap();
        assert!(!d.in_txn());
        // A replay of the same id after commit must skip.
        assert_eq!(d.begin(&mut m, 1).unwrap(), TX_SKIP_COMMITTED);
        assert_eq!(m.stats().txn_commits, 1);
        assert_eq!(m.stats().txn_skips, 1);
    }

    #[test]
    fn interrupted_txn_becomes_retry_with_bumped_attempt() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        assert_eq!(d.begin(&mut m, 5).unwrap(), 0);
        // Power dies mid-transaction: no commit.
        m.power_failure(150);
        let mut d = TxDriver::default(); // host mirror is volatile
        d.reconcile(&mut m).unwrap();
        assert_eq!(m.stats().txn_retries, 1);
        // The replayed begin resumes under attempt 1.
        assert_eq!(d.begin(&mut m, 5).unwrap(), 1);
        d.commit(&mut m, 5).unwrap();
        assert_eq!(d.begin(&mut m, 5).unwrap(), TX_SKIP_COMMITTED);
    }

    #[test]
    fn budget_exhaustion_poisons_the_descriptor() {
        let mut m = machine();
        let mut d = TxDriver::default();
        let max = d.policy.max_attempts;
        d.reconcile(&mut m).unwrap();
        assert_eq!(d.begin(&mut m, 9).unwrap(), 0);
        for _ in 0..max {
            m.power_failure(100);
            d = TxDriver::default();
            d.reconcile(&mut m).unwrap();
        }
        assert_eq!(m.stats().txn_poisoned, 1);
        assert_eq!(m.stats().txn_retries, u64::from(max) - 1);
        // The program sees the poisoned sentinel and degrades gracefully.
        assert_eq!(d.begin(&mut m, 9).unwrap(), TX_SKIP_POISONED);
    }

    #[test]
    fn retry_charges_monotone_backoff_cycles() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        d.begin(&mut m, 2).unwrap();
        let mut last = 0;
        let mut deltas = Vec::new();
        for _ in 0..3 {
            m.power_failure(100);
            let before = m.cycles();
            d = TxDriver::default();
            d.reconcile(&mut m).unwrap();
            let spent = m.cycles() - before;
            deltas.push(spent);
            assert!(spent > last, "reconcile backoff must grow: {deltas:?}");
            last = spent;
        }
    }

    #[test]
    fn recycled_ids_below_high_water_skip() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        // Fill well past the journal capacity with committed txns.
        for id in 1..=(TXJ_SLOTS + 4) {
            assert_eq!(d.begin(&mut m, id).unwrap(), 0, "id {id}");
            d.commit(&mut m, id).unwrap();
        }
        // Id 1's slot has been recycled, but the high-water mark still
        // proves it finished: a replay must skip, not re-run.
        assert_eq!(d.begin(&mut m, 1).unwrap(), TX_SKIP_COMMITTED);
    }

    #[test]
    fn commit_without_begin_traps() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        assert!(d.commit(&mut m, 3).is_err());
    }

    #[test]
    fn journal_survives_power_failure() {
        let mut m = machine();
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        d.begin(&mut m, 1).unwrap();
        d.commit(&mut m, 1).unwrap();
        m.power_failure(1_000);
        let mut d = TxDriver::default();
        d.reconcile(&mut m).unwrap();
        assert_eq!(d.begin(&mut m, 1).unwrap(), TX_SKIP_COMMITTED);
    }
}
