//! Property test for the crash-consistent persistence primitive
//! (`tics_vm::persist`): seeded splitmix64 schedules drive
//! `Checkpoint::commit` and `Checkpoint::boot`, the one commit and boot
//! sequence of every hardened runtime. They interleave full and delta
//! commits with torn program stores, brown-out bit flips and dropped
//! staging stores (`CorruptionModel`), commits that die on the energy
//! gate, and direct clobbers of banks, delta records and the flag word,
//! then reboot and check what boot hands back. It must be one of:
//!
//! * the last published state (no `Recovery` journaled);
//! * an older published state, with a journaled `Recovery`;
//! * a declared fresh start.
//!
//! It must never be a state that was never published. An exact boot
//! returns the committed misc block word for word.
//!
//! The trace records are checked on every call. A publish emits exactly
//! one `CheckpointCommit` of the caller's cause and the published
//! record's `len`; an aborted commit emits none. A restore emits exactly
//! one `Restore` and charges exactly the caller's restore cost, inside
//! the `Restore` span; a restart emits none and charges nothing.
//!
//! The flag word is the commit point itself and carries no CRC: a
//! clobber to another in-range value (0, 1, 2) is indistinguishable
//! from a publish by construction, so flag clobbers here draw
//! out-of-range values, which boot must detect.

use std::collections::HashSet;

use tics_mcu::{Addr, CorruptionModel};
use tics_minic::{compile, opt::OptLevel};
use tics_trace::{CkptCause, SpanKind, TraceEvent};
use tics_vm::persist::{
    init_control, pack_misc, unpack_misc, BankChoice, BankPair, Boot, Checkpoint, CommitOutcome,
    Misc, UndoLog, DELTA_HEADER, DELTA_MISC,
};
use tics_vm::{Machine, MachineConfig};

/// splitmix64 — the schedule's seed stream, fixed so every run replays
/// the exact same schedule.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Control block: `u32` magic, `u32` flag, `u64` published sequence,
/// `u64` chain tip.
const MAGIC: u32 = 0x7E57_C0DE;
const FLAG: u32 = 4;
const PUBLISHED: u32 = 8;
const TIP: u32 = 16;
const CTRL: u32 = 24;
/// Bytes of checkpointed state (a window at the start of SRAM).
const REGION: u32 = 96;

/// Causes the schedule's commits cycle through, so a commit event that
/// drops or fixes its cause shows.
const CAUSES: [CkptCause; 3] = [CkptCause::Site, CkptCause::Forced, CkptCause::Voltage];

const SEEDS: u64 = 64;
const STEPS: usize = 400;

/// What boot handed back, counted so the schedule provably reaches
/// every outcome.
#[derive(Debug, Default)]
struct Tally {
    full_commits: u64,
    delta_commits: u64,
    unverified_stages: u64,
    exact_boots: u64,
    recovered_latest: u64,
    recovered_older: u64,
    fresh_starts: u64,
}

struct Rig {
    m: Machine,
    banks: BankPair,
    ckpt: Checkpoint,
    region: [(Addr, u32); 1],
    rng: u64,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let prog = compile("int main() { return 0; }", OptLevel::O1).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let base = m.runtime_area_base();
        init_control(&mut m, base, MAGIC, CTRL).unwrap();
        let banks = BankPair::new(
            base.offset(CTRL),
            base.offset(FLAG),
            base.offset(PUBLISHED),
            REGION,
        );
        let region = [(m.mem.layout().sram.start, REGION)];
        let mut rig = Rig {
            m,
            banks,
            ckpt: Checkpoint::default(),
            region,
            rng: seed,
        };
        rig.lose_power();
        rig
    }

    fn next(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Host state is volatile: a reboot rebuilds the cursor from FRAM.
    fn lose_power(&mut self) {
        self.ckpt = Checkpoint::default();
        let tip = self.m.runtime_area_base().offset(TIP);
        self.ckpt.place(self.banks, tip);
        // The volatile window decays to garbage.
        let (start, len) = self.region[0];
        let junk: Vec<u8> = (0..len).map(|_| self.next() as u8).collect();
        self.m.mem.poke_bytes(start, &junk).unwrap();
    }

    /// A misc block for `step`. Word 0 is random too, so a restore that
    /// drops it or rebuilds it as a constant shows.
    fn misc(&mut self, step: u32) -> Misc {
        let r = self.next();
        pack_misc([(r >> 16) as u32, r as u32, (r >> 32) as u32, step, 7, 9])
    }

    /// The `CheckpointCommit` and `Restore` events journaled since the
    /// trace held `from` records.
    fn persist_events(&self, from: usize) -> Vec<TraceEvent> {
        self.m.trace().records()[from..]
            .iter()
            .map(|r| r.event)
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::CheckpointCommit { .. } | TraceEvent::Restore { .. }
                )
            })
            .collect()
    }

    /// One commit of `misc` over the window under `corruption` of its
    /// staging stores (with a power cut armed), charged one cycle past
    /// the energy deadline if `starve`, else nothing. Checks the commit
    /// events it journaled.
    fn commit(
        &mut self,
        misc: &Misc,
        corruption: Option<CorruptionModel>,
        starve: bool,
    ) -> CommitOutcome {
        let region = self.region;
        let cause = CAUSES[unpack_misc(misc)[3] as usize % CAUSES.len()];
        let from = self.m.trace().records().len();
        self.m.mem.set_corruption(corruption);
        self.m.mem.set_power_cut(Some(self.m.cycles() + 1));
        if starve {
            self.m.set_period_deadline(self.m.cycles());
        }
        let outcome = self
            .ckpt
            .commit(
                &mut self.m,
                cause,
                misc,
                DELTA_MISC + REGION,
                (&region, &region),
                |_, _| u64::from(starve),
            )
            .unwrap();
        self.m.set_period_deadline(u64::MAX);
        self.m.mem.set_power_cut(None);
        self.m.mem.set_corruption(None);
        let events = self.persist_events(from);
        if outcome == CommitOutcome::Committed {
            let len = self
                .published_len(misc)
                .expect("a published record carries the committed misc block");
            assert_eq!(
                events,
                [TraceEvent::CheckpointCommit {
                    cause,
                    bytes: u64::from(len)
                }],
                "a publish journals one commit of its cause and the record's len"
            );
        } else {
            assert_eq!(events, [], "{outcome:?} journaled a commit");
        }
        outcome
    }

    /// The chain tip word: the last published delta record's sequence,
    /// 0 right after a full bank is published.
    fn tip(&self) -> u64 {
        let tip = self.m.runtime_area_base().offset(TIP);
        self.m.mem.peek_u64(tip).unwrap()
    }

    /// The `len` field of the record just published with `misc`: the
    /// chain record whose sequence is the tip, or with no tip the bank
    /// the flag names. A record is recognized by its sequence number and
    /// the misc block leading its payload.
    fn published_len(&self, misc: &Misc) -> Option<u32> {
        let mem = &self.m.mem;
        let (seq, candidates) = if self.tip() != 0 {
            let (journal, capacity) = self.banks.journal();
            let offsets = (0..capacity - DELTA_HEADER - DELTA_MISC).step_by(8);
            (self.tip(), offsets.map(|off| journal.offset(off)).collect())
        } else {
            let flag = mem.peek_word(self.banks.flag).unwrap();
            let seq = mem.peek_u64(self.banks.published_seq).unwrap();
            (seq, vec![self.banks.bank(flag)])
        };
        candidates.into_iter().find_map(|at: Addr| {
            let head = mem.peek_slice(at, DELTA_HEADER).unwrap();
            let lead = mem.peek_slice(at.offset(DELTA_HEADER), DELTA_MISC).unwrap();
            let found =
                u64::from_le_bytes(head[..8].try_into().unwrap()) == seq && lead == misc.as_slice();
            found.then(|| u32::from_le_bytes(head[8..12].try_into().unwrap()))
        })
    }

    /// Boots the window from the last published checkpoint, with a
    /// restore cost that depends on the basis boot passes it. Checks the
    /// restore events it journaled and the cycles it charged.
    fn boot(&mut self) -> Boot {
        let region = self.region;
        let from = self.m.trace().records().len();
        let cycles = self.m.cycles();
        let in_span = self.m.mem.span_cycles(SpanKind::Restore);
        let mut charged = None;
        let boot = self
            .ckpt
            .boot(
                &mut self.m,
                |_, _| (region, region),
                |c, restored| {
                    assert!(restored >= REGION, "the basis covers the image");
                    *charged.insert(c.restore_base + u64::from(restored))
                },
            )
            .unwrap();
        let events = self.persist_events(from);
        let spent = self.m.cycles() - cycles;
        match boot {
            Boot::Restored { .. } => {
                let cost = charged.expect("a restore asks for its cost");
                assert_eq!(events.len(), 1, "one Restore per restore: {events:?}");
                let TraceEvent::Restore { bytes } = events[0] else {
                    panic!("a restore journaled {events:?}");
                };
                assert!(
                    bytes >= u64::from(DELTA_MISC + REGION),
                    "{bytes} B restored"
                );
                assert_eq!(spent, cost, "a restore charges the caller's cost");
                assert_eq!(
                    self.m.mem.span_cycles(SpanKind::Restore) - in_span,
                    cost,
                    "inside the Restore span"
                );
            }
            Boot::Restart(_) => {
                assert_eq!(charged, None, "a restart asks for no restore cost");
                assert_eq!(events, [], "a restart journaled a restore");
                assert_eq!(spent, 0, "a restart charges nothing");
            }
        }
        boot
    }

    /// The state a restore must reproduce: misc block plus region bytes.
    fn state(&self, misc: &Misc) -> Vec<u8> {
        let (start, len) = self.region[0];
        let mut s = misc.to_vec();
        s.extend_from_slice(self.m.mem.peek_slice(start, len).unwrap());
        s
    }

    /// Program stores into the window: whole words, or a multi-word
    /// burst torn at a power cut armed inside it.
    fn mutate(&mut self) {
        let (start, len) = self.region[0];
        let words = 1 + self.next() % 3;
        for _ in 0..words {
            let at = start.offset(4 * (self.next() as u32 % (len / 4 - 3)));
            let v = self.next().to_le_bytes();
            if self.next().is_multiple_of(3) {
                let cut = self.m.cycles() + self.next() % 12;
                self.m.mem.set_power_cut(Some(cut));
                self.m.mem.write_bytes(at, &v).unwrap();
                self.m.mem.set_power_cut(None);
            } else {
                self.m.mem.poke_bytes(at, &v[..4]).unwrap();
            }
        }
    }

    fn flip_bit(&mut self, base: Addr, span: u32) {
        let a = base.offset(self.next() as u32 % span);
        let b = self.m.mem.peek_slice(a, 1).unwrap()[0];
        let bit = 1u8 << (self.next() % 8);
        self.m.mem.poke_bytes(a, &[b ^ bit]).unwrap();
    }
}

fn run_schedule(seed: u64, tally: &mut Tally) {
    let mut rig = Rig::new(seed);
    assert_eq!(rig.boot(), Boot::Restart(BankChoice::None));
    // The restore point boot must reproduce (None = nothing published
    // since the last declared fresh start), and every state ever
    // published — the only states a recovery may fall back to.
    let mut current: Option<Vec<u8>> = None;
    let mut published: HashSet<Vec<u8>> = HashSet::new();

    for step in 0..STEPS {
        match rig.next() % 16 {
            0..=5 => rig.mutate(),
            6..=10 => {
                // A commit attempt under brown-out corruption of its
                // staging stores. One in eight dies on the energy gate:
                // staged and verified, never published.
                let misc = rig.misc(step as u32);
                let rate = [0.0, 0.2, 0.6, 0.95][rig.next() as usize % 4];
                let model = CorruptionModel::new(u64::MAX, rate * 0.6, rate * 0.4, rig.next());
                let starve = rig.next().is_multiple_of(8);
                match rig.commit(&misc, Some(model), starve) {
                    CommitOutcome::Committed => {
                        if rig.tip() != 0 {
                            tally.delta_commits += 1;
                        } else {
                            tally.full_commits += 1;
                        }
                        let s = rig.state(&misc);
                        published.insert(s.clone());
                        current = Some(s);
                    }
                    CommitOutcome::VerifyAbort => tally.unverified_stages += 1,
                    CommitOutcome::EnergyAbort => assert!(starve),
                }
            }
            11 => {
                let bank = if rig.next().is_multiple_of(2) {
                    rig.banks.a
                } else {
                    rig.banks.b
                };
                rig.flip_bit(bank, rig.banks.bank_bytes());
            }
            12 => rig.flip_bit(rig.banks.journal().0, 512),
            13 => {
                let bad = 3 + rig.next() as u32 % 1_000;
                rig.m
                    .mem
                    .poke_bytes(rig.banks.flag, &bad.to_le_bytes())
                    .unwrap();
            }
            _ => {
                rig.lose_power();
                let recoveries = rig.m.stats().recoveries;
                let fresh = rig.m.stats().fresh_starts;
                let ctx = format!("seed {seed:#x} step {step}");
                match rig.boot() {
                    Boot::Restart(BankChoice::FreshStart) => {
                        assert_eq!(rig.m.stats().fresh_starts, fresh + 1, "{ctx}: undeclared");
                        tally.fresh_starts += 1;
                        current = None;
                    }
                    Boot::Restart(choice) => {
                        assert_eq!(choice, BankChoice::None, "{ctx}");
                        assert!(current.is_none(), "{ctx}: published state silently lost");
                        assert_eq!(rig.m.stats().recoveries, recoveries, "{ctx}");
                    }
                    Boot::Restored { misc, .. } => {
                        let got = rig.state(&misc);
                        if rig.m.stats().recoveries == recoveries {
                            let committed = current
                                .as_ref()
                                .map(|s| unpack_misc(s[..DELTA_MISC as usize].try_into().unwrap()));
                            assert_eq!(
                                Some(unpack_misc(&misc)),
                                committed,
                                "{ctx}: exact boot must return the committed misc block, \
                                 word 0 included"
                            );
                            assert_eq!(
                                Some(&got),
                                current.as_ref(),
                                "{ctx}: boot without Recovery must restore the last \
                                 published state"
                            );
                            tally.exact_boots += 1;
                        } else {
                            assert!(
                                published.contains(&got),
                                "{ctx}: recovery restored a state that was never published"
                            );
                            if Some(&got) == current.as_ref() {
                                tally.recovered_latest += 1;
                            } else {
                                tally.recovered_older += 1;
                            }
                        }
                        current = Some(got);
                    }
                }
            }
        }
    }
}

#[test]
fn boot_yields_only_published_states_or_declared_recovery() {
    let mut tally = Tally::default();
    let mut seeds = 0x9E25_1577_0000_0001u64;
    for _ in 0..SEEDS {
        let seed = splitmix64(&mut seeds);
        run_schedule(seed, &mut tally);
    }
    // Every outcome class must actually occur, or the schedule is too
    // gentle to prove anything.
    let t = &tally;
    for (what, n) in [
        ("full commits", t.full_commits),
        ("delta commits", t.delta_commits),
        ("unverified stages", t.unverified_stages),
        ("exact boots", t.exact_boots),
        ("recoveries to the latest state", t.recovered_latest),
        ("recoveries to an older state", t.recovered_older),
        ("declared fresh starts", t.fresh_starts),
    ] {
        assert!(n > 0, "no {what} in {t:?}");
    }
}

/// Corruption alone loses no published record. A commit whose every
/// staging store is dropped fails verification and is never published;
/// the next verified commit must extend the chain without a sequence
/// gap, so no boot journals a `Recovery` and every boot restores the
/// last published state.
#[test]
fn corruption_only_schedules_never_journal_a_recovery() {
    let (mut dropped, mut delta_commits, mut boots) = (0u64, 0u64, 0u64);
    let mut seeds = 0x5E9_6A90_0000_0001u64;
    for _ in 0..16 {
        let seed = splitmix64(&mut seeds);
        let mut rig = Rig::new(seed);
        assert_eq!(rig.boot(), Boot::Restart(BankChoice::None));
        let mut current: Option<Vec<u8>> = None;
        for step in 0..64u32 {
            rig.mutate();
            let misc = rig.misc(step);
            let drop_all = rig.next().is_multiple_of(3);
            let model = drop_all.then(|| CorruptionModel::new(u64::MAX, 0.0, 1.0, rig.next()));
            match rig.commit(&misc, model, false) {
                CommitOutcome::Committed => {
                    assert!(!drop_all, "step {step}: unverified stage published");
                    delta_commits += u64::from(rig.tip() != 0);
                    current = Some(rig.state(&misc));
                }
                outcome => {
                    assert_eq!(outcome, CommitOutcome::VerifyAbort, "step {step}");
                    assert!(drop_all, "step {step}: clean stage refused");
                    dropped += 1;
                }
            }
            if step % 5 != 4 {
                continue;
            }
            boots += 1;
            rig.lose_power();
            let ctx = format!("seed {seed:#x} step {step}");
            let got = match rig.boot() {
                Boot::Restored { misc, .. } => Some(rig.state(&misc)),
                Boot::Restart(choice) => {
                    assert_eq!(
                        choice,
                        BankChoice::None,
                        "{ctx}: fresh start without a clobber"
                    );
                    None
                }
            };
            assert_eq!(rig.m.stats().recoveries, 0, "{ctx}: Recovery journaled");
            assert_eq!(got, current, "{ctx}: not the last published state");
        }
    }
    assert!(
        dropped > 0 && delta_commits > 0 && boots > 0,
        "{dropped} dropped stages, {delta_commits} delta commits, {boots} boots"
    );
}

// ---------------------------------------------------------------------
// The undo log
// ---------------------------------------------------------------------

/// A machine with an undo log of `capacity` slots placed in the runtime
/// area (count word first, slots after it) and two FRAM words, well
/// past the slots, for the program to store to.
fn undo_rig(capacity: u32) -> (Machine, UndoLog, Addr, Addr) {
    let prog = compile("int main() { return 0; }", OptLevel::O1).unwrap();
    let m = Machine::new(prog, MachineConfig::default()).unwrap();
    let base = m.runtime_area_base();
    let log = UndoLog::new(base.offset(8), capacity, base);
    let a = base.offset(8 + 8 * capacity + 64);
    (m, log, a, a.offset(4))
}

/// A logged program store: the undo entry first, then the store.
fn logged_store(m: &mut Machine, log: &mut UndoLog, addr: Addr, v: i32) {
    log.append(m, addr, 4).unwrap();
    m.mem.poke_i32(addr, v).unwrap();
}

fn word(m: &Machine, addr: Addr) -> i32 {
    m.mem.peek_word(addr).unwrap() as i32
}

#[test]
fn undo_log_rollback_restores_the_oldest_value_of_a_twice_logged_word() {
    let (mut m, mut log, a, _) = undo_rig(8);
    m.mem.poke_i32(a, 1).unwrap();
    logged_store(&mut m, &mut log, a, 2);
    logged_store(&mut m, &mut log, a, 3);
    assert_eq!(log.len(), 2);
    log.rollback_to(&mut m, 0).unwrap();
    assert_eq!(word(&m, a), 1, "newest first: the oldest value wins");
    assert!(log.is_empty());
    assert_eq!(m.stats().undo_log_appends, 2);
    assert_eq!(m.stats().undo_rollbacks, 2);
    let costs = m.mem.costs().clone();
    assert_eq!(
        m.mem.span_cycles(SpanKind::UndoLog),
        2 * costs.undo_log_cost(4)
    );
    assert_eq!(
        m.mem.span_cycles(SpanKind::Rollback),
        2 * costs.rollback_cost(4)
    );
}

/// The events of the trace, in order.
fn events(m: &Machine) -> Vec<TraceEvent> {
    m.trace().records().iter().map(|r| r.event).collect()
}

#[test]
fn stats_and_trace_count_each_event_when_it_is_emitted() {
    let (mut m, mut log, a, _) = undo_rig(8);
    m.trace_mut().set_detailed(true);
    let undo = [
        TraceEvent::SpanEnter {
            kind: SpanKind::UndoLog,
        },
        TraceEvent::UndoAppend { bytes: 4 },
        TraceEvent::SpanExit {
            kind: SpanKind::UndoLog,
        },
    ];
    let rollback = [
        TraceEvent::SpanEnter {
            kind: SpanKind::Rollback,
        },
        TraceEvent::Rollback { bytes: 4 },
        TraceEvent::SpanExit {
            kind: SpanKind::Rollback,
        },
    ];

    log.append(&mut m, a, 4).unwrap();
    assert_eq!(m.stats().undo_log_appends, 1);
    assert_eq!(events(&m), undo);

    log.rollback_to(&mut m, 0).unwrap();
    assert_eq!(m.stats().undo_rollbacks, 1);
    assert_eq!(events(&m), [undo, rollback].concat());

    m.emit(TraceEvent::StackGrow);
    assert_eq!(m.stats().stack_grows, 1);
    assert_eq!(
        events(&m),
        [&undo[..], &rollback[..], &[TraceEvent::StackGrow]].concat()
    );
}

#[test]
fn undo_log_rollback_to_a_mark_keeps_the_entries_below_it() {
    let (mut m, mut log, a, b) = undo_rig(8);
    m.mem.poke_i32(a, 10).unwrap();
    m.mem.poke_i32(b, 20).unwrap();
    logged_store(&mut m, &mut log, a, 11);
    let mark = log.len();
    logged_store(&mut m, &mut log, b, 21);
    logged_store(&mut m, &mut log, a, 12);
    log.rollback_to(&mut m, mark).unwrap();
    assert_eq!((word(&m, a), word(&m, b)), (11, 20));
    assert_eq!(log.len(), mark);
    log.rollback_to(&mut m, 0).unwrap();
    assert_eq!((word(&m, a), word(&m, b)), (10, 20));
}

#[test]
fn undo_log_count_survives_a_power_failure_through_load() {
    let (mut m, mut log, a, b) = undo_rig(8);
    m.mem.poke_i32(a, 5).unwrap();
    m.mem.poke_i32(b, 6).unwrap();
    logged_store(&mut m, &mut log, a, 50);
    logged_store(&mut m, &mut log, b, 60);
    m.power_failure(100);
    // The cached count dies with the runtime's volatile state; the
    // reboot re-derives it from FRAM.
    let base = m.runtime_area_base();
    let mut rebooted = UndoLog::new(base.offset(8), 8, base);
    assert!(rebooted.is_empty());
    rebooted.load(&m).unwrap();
    assert_eq!(rebooted, log);
    rebooted.rollback_to(&mut m, 0).unwrap();
    assert_eq!((word(&m, a), word(&m, b)), (5, 6));
    rebooted.load(&m).unwrap();
    assert!(rebooted.is_empty(), "the rollback persisted the new count");
}

#[test]
fn a_full_undo_log_reports_full_and_writes_nothing_past_capacity() {
    let (mut m, mut log, a, b) = undo_rig(2);
    logged_store(&mut m, &mut log, a, 1);
    assert!(!log.is_full());
    logged_store(&mut m, &mut log, b, 2);
    assert!(log.is_full());
    let base = m.runtime_area_base();
    let past = base.offset(8 + 8 * 2);
    let before = (
        m.mem.peek_slice(base, 8 + 8 * 2 + 8).unwrap().to_vec(),
        m.cycles(),
    );
    assert!(log.append(&mut m, a, 4).is_err());
    assert_eq!(
        (
            m.mem.peek_slice(base, 8 + 8 * 2 + 8).unwrap().to_vec(),
            m.cycles()
        ),
        before,
        "no slot past capacity, no count change, no charge"
    );
    assert_eq!(m.mem.count_dirty_words(past, 8), 0);
    assert_eq!(log.len(), 2);
    assert_eq!(m.stats().undo_log_appends, 2);
    log.clear(&mut m).unwrap();
    assert!(log.is_empty() && !log.is_full());
}
