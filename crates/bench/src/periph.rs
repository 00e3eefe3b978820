//! Torn-wire peripheral workloads and the detect-or-recover oracle.
//!
//! Checkpoints rewind the *program*, never the *wire*: a UART byte that
//! left the pin or an I2C read transaction the sensor already committed
//! stays done across a reboot. A runtime replaying from a checkpoint
//! therefore re-drives I/O unless the driver layer makes every
//! transaction idempotent. This module sweeps three driver-shaped
//! workloads across the system matrix under adversarial power cuts
//! (plus optional brown-out corruption) and judges each replay at the
//! *device* side of the wire:
//!
//! - **`i2c-sensor-log`** — journaled read transactions against the
//!   multi-byte I2C sensor whose read-out cursor only advances on a
//!   completed untorn STOP. Exactly-once delivery shows up as strictly
//!   ordered `print(id · 16384 + reading)` records whose values match
//!   the sensor's own served-readings log. TICS additionally runs a
//!   timed variant that drops stale readings through `@expires`.
//! - **`uart-telemetry`** — attempt-tagged frames
//!   `[0xA5, seq, attempt, payload, checksum]`. A hardened retry bumps
//!   the attempt (the receiver dedups by `seq`); a naive replay resends
//!   the *same* `(seq, attempt)` — the oracle's smoking gun.
//! - **`uart-reqresp`** — request/response with a drain-FIFO-then-ask
//!   transaction body. Replaying the *whole* body is idempotent; a
//!   mid-transaction checkpoint resumes past the drain and reads a
//!   stale response.
//!
//! The oracle never compares timestamps or trusts the MCU: its ground
//! truth is the persistent device-side logs ([`tics_mcu::Uart`]'s wire
//! bytes, [`tics_mcu::I2c`]'s served readings). Torn bytes are visible
//! garbage (framing errors), duplicate frames with a bumped attempt are
//! *recovered*, duplicate `(seq, attempt)` or a regressed/mutated print
//! stream is a *violation*, and a trap is a loud, acceptable *detected*
//! death. A gap (power died between `tx_commit` and the app-level
//! `print`) is permitted: the transaction committed on the wire and the
//! journal skips its replay.

use tics_apps::build::build_program;
use tics_apps::SystemUnderTest;
use tics_energy::FaultPlan;
use tics_mcu::periph::{ServedRead, Uart, WireByte};
use tics_minic::Program;
use tics_trace::{TraceEvent, TraceRecord};
use tics_vm::{RunOutcome, VmError};

use crate::fault::{
    chaos_plan, corpus_opt, golden_machine, replay_budget_us, ReplayRig, GUARD_BOOTS,
};
use crate::json::Json;

/// Telemetry frame header byte — the only value ≥ 0x80 a valid frame
/// carries, so the parser can always resynchronize on it.
pub const TELEMETRY_HDR: u8 = 0xA5;

/// Transactions each workload issues (ids / sequence numbers `1..=N`).
pub const SENSOR_TXNS: u32 = 10;
/// Telemetry frames sent (`seq` runs `1..=12`).
pub const TELEMETRY_TXNS: u32 = 12;
/// Request/response exchanges (`id` runs `1..=10`).
pub const REQRESP_TXNS: u32 = 10;

// ---------------------------------------------------------------------
// Workload corpus
// ---------------------------------------------------------------------

/// A driver-shaped mini-C workload over the torn-wire peripherals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeriphWorkload {
    /// Journaled multi-byte reads from the persistent I2C sensor.
    SensorLog,
    /// Attempt-tagged UART telemetry frames.
    Telemetry,
    /// UART request/response with a drain-then-ask transaction body.
    ReqResp,
}

// Shared workload rules (the oracle depends on them):
//  - transaction ids start at 1 and are begun in increasing order (the
//    journal's high-water recycling requires monotone ids);
//  - the app-level `print` happens strictly AFTER `tx_commit`, so a cut
//    between the two yields a gap, never a duplicate;
//  - all transaction-body state lives in locals (no `nv` stores inside
//    a body), so no runtime is ever forced to checkpoint mid-txn.

const SENSOR_LOG_SRC: &str = "
int main() {
    for (int id = 1; id < 11; id = id + 1) {
        int a = tx_begin(id);
        if (a >= 0) {
            int hi = 0;
            int lo = 0;
            int ok = 0;
            while (ok == 0) {
                i2c_reset();
                i2c_start(64);
                hi = i2c_read();
                lo = i2c_read();
                ok = i2c_stop();
            }
            tx_commit(id);
            print(id * 16384 + hi * 256 + lo);
        }
    }
    return 0;
}
";

// The TICS variant stamps each committed reading with `@=` and drops it
// through `catch` (printing `-id`) if the reading went stale before the
// timed block ran. TICS seals a ~1 ms site checkpoint between the stamp
// and the `@expires` entry even on continuous power, so the TTL must
// clear that fresh-path latency; 2 ms does, while a post-commit outage
// (150 µs off plus restore, journal reconciliation, and retry backoff
// on top of the same seal) can still push a replayed reading past it
// and surface as an explicit stale-drop instead of a silently late
// record.
const SENSOR_LOG_TICS_SRC: &str = "
@expires_after = 2ms
int reading;
int main() {
    for (int id = 1; id < 11; id = id + 1) {
        int a = tx_begin(id);
        if (a >= 0) {
            int hi = 0;
            int lo = 0;
            int ok = 0;
            while (ok == 0) {
                i2c_reset();
                i2c_start(64);
                hi = i2c_read();
                lo = i2c_read();
                ok = i2c_stop();
            }
            tx_commit(id);
            reading @= hi * 256 + lo;
            @expires(reading) { print(id * 16384 + reading); }
            catch { print(0 - id); }
        }
    }
    return 0;
}
";

const SENSOR_LOG_TASK_SRC: &str = "
nv int cur_task;
nv int id;
int task_seed() {
    id = 1;
    return 1;
}
int task_txn() {
    int a = tx_begin(id);
    if (a < 0) { return 2; }
    i2c_reset();
    i2c_start(64);
    int hi = i2c_read();
    int lo = i2c_read();
    int ok = i2c_stop();
    if (ok == 0) { return 1; }
    tx_commit(id);
    print(id * 16384 + hi * 256 + lo);
    return 2;
}
int task_next() {
    id = id + 1;
    if (id < 11) { return 1; }
    return 3;
}
int main() {
    while (cur_task < 3) {
        if (cur_task == 0) { cur_task = task_seed(); }
        else {
            if (cur_task == 1) { cur_task = task_txn(); }
            else { cur_task = task_next(); }
        }
    }
    return 0;
}
";

const SENSOR_LOG_TASKS: &[&str] = &["task_seed", "task_txn", "task_next"];

const TELEMETRY_SRC: &str = "
int main() {
    for (int seq = 1; seq < 13; seq = seq + 1) {
        int a = tx_begin(seq);
        if (a >= 0) {
            int p = (seq * 37 + 11) % 97;
            int c = (seq * 7 + a * 13 + p * 3 + 5) % 128;
            int sent = 0;
            while (sent < 5) {
                sent = uart_tx(165);
                sent = sent + uart_tx(seq);
                sent = sent + uart_tx(a);
                sent = sent + uart_tx(p);
                sent = sent + uart_tx(c);
            }
            tx_commit(seq);
            print(seq);
        }
    }
    return 0;
}
";

const TELEMETRY_TASK_SRC: &str = "
nv int cur_task;
nv int seq;
int task_seed() {
    seq = 1;
    return 1;
}
int task_frame() {
    int a = tx_begin(seq);
    if (a < 0) { return 2; }
    int p = (seq * 37 + 11) % 97;
    int c = (seq * 7 + a * 13 + p * 3 + 5) % 128;
    int sent = uart_tx(165);
    sent = sent + uart_tx(seq);
    sent = sent + uart_tx(a);
    sent = sent + uart_tx(p);
    sent = sent + uart_tx(c);
    if (sent < 5) { return 1; }
    tx_commit(seq);
    print(seq);
    return 2;
}
int task_next() {
    seq = seq + 1;
    if (seq < 13) { return 1; }
    return 3;
}
int main() {
    while (cur_task < 3) {
        if (cur_task == 0) { cur_task = task_seed(); }
        else {
            if (cur_task == 1) { cur_task = task_frame(); }
            else { cur_task = task_next(); }
        }
    }
    return 0;
}
";

const TELEMETRY_TASKS: &[&str] = &["task_seed", "task_frame", "task_next"];

const REQRESP_SRC: &str = "
int main() {
    for (int id = 1; id < 11; id = id + 1) {
        int a = tx_begin(id);
        if (a >= 0) {
            int junk = 0;
            while (junk >= 0) { junk = uart_rx(); }
            int sent = 0;
            while (sent == 0) { sent = uart_tx(id * 11 % 128); }
            int r = 0 - 1;
            while (r < 0) { r = uart_rx(); }
            tx_commit(id);
            print(id * 256 + r);
        }
    }
    return 0;
}
";

impl PeriphWorkload {
    /// The whole corpus, grid order.
    pub const ALL: [PeriphWorkload; 3] = [
        PeriphWorkload::SensorLog,
        PeriphWorkload::Telemetry,
        PeriphWorkload::ReqResp,
    ];

    /// Journal label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PeriphWorkload::SensorLog => "i2c-sensor-log",
            PeriphWorkload::Telemetry => "uart-telemetry",
            PeriphWorkload::ReqResp => "uart-reqresp",
        }
    }

    /// Parses a journal label back into a workload.
    #[must_use]
    pub fn from_name(name: &str) -> Option<PeriphWorkload> {
        PeriphWorkload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Transactions the workload issues (ids `1..=txns`).
    #[must_use]
    pub fn txns(self) -> u32 {
        match self {
            PeriphWorkload::SensorLog => SENSOR_TXNS,
            PeriphWorkload::Telemetry => TELEMETRY_TXNS,
            PeriphWorkload::ReqResp => REQRESP_TXNS,
        }
    }

    fn legacy_src(self, system: SystemUnderTest) -> &'static str {
        match self {
            PeriphWorkload::SensorLog if system == SystemUnderTest::Tics => SENSOR_LOG_TICS_SRC,
            PeriphWorkload::SensorLog => SENSOR_LOG_SRC,
            PeriphWorkload::Telemetry => TELEMETRY_SRC,
            PeriphWorkload::ReqResp => REQRESP_SRC,
        }
    }

    fn task_src(self) -> Option<(&'static str, &'static [&'static str])> {
        match self {
            PeriphWorkload::SensorLog => Some((SENSOR_LOG_TASK_SRC, SENSOR_LOG_TASKS)),
            PeriphWorkload::Telemetry => Some((TELEMETRY_TASK_SRC, TELEMETRY_TASKS)),
            // The drain/await loops have no loop-free task decomposition.
            PeriphWorkload::ReqResp => None,
        }
    }
}

/// Builds (compiles + instruments) a peripheral workload for `system`
/// like [`crate::fault::build_fault_program`]: task kernels get the
/// hand-ported task graph (one transaction attempt per loop-free task
/// body), TICS gets the `@expires`-annotated sensor variant.
///
/// # Errors
///
/// Returns a human-readable reason for infeasible cells (no task port)
/// and for compile failures.
pub fn build_periph_program(
    workload: PeriphWorkload,
    system: SystemUnderTest,
) -> Result<Program, String> {
    let no_port = format!("{} has no loop-free task-graph port", workload.name());
    let task = workload.task_src().ok_or(no_port.as_str());
    build_program(
        system,
        workload.legacy_src(system),
        task,
        corpus_opt(system),
    )
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------

/// One parsed telemetry frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Monotone sequence number (`1..=TELEMETRY_TXNS`).
    pub seq: u8,
    /// Driver attempt counter the frame was sent under.
    pub attempt: u8,
    /// Payload byte.
    pub payload: u8,
}

/// The deterministic payload the workload computes for `seq`.
#[must_use]
pub fn expected_payload(seq: u8) -> u8 {
    ((u32::from(seq) * 37 + 11) % 97) as u8
}

fn frame_checksum(seq: u8, attempt: u8, payload: u8) -> u8 {
    ((u32::from(seq) * 7 + u32::from(attempt) * 13 + u32::from(payload) * 3 + 5) % 128) as u8
}

/// The request byte the req/resp workload sends for transaction `id`.
#[must_use]
pub fn request_byte(id: u32) -> u8 {
    ((id * 11) % 128) as u8
}

/// Parses valid frames out of a device-side wire log. A valid frame is
/// five consecutive *untorn* bytes: the `0xA5` header, three bytes
/// below 0x80, and a matching checksum. Anything else (torn symbols,
/// partial frames cut by a power failure) is framing garbage the
/// receiver discards; the parser resynchronizes on the next header.
#[must_use]
pub fn parse_frames(wire: &[WireByte]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut i = 0;
    while i + 5 <= wire.len() {
        let w = &wire[i..i + 5];
        let valid = w.iter().all(|b| !b.torn)
            && w[0].byte == TELEMETRY_HDR
            && w[1..].iter().all(|b| b.byte < 0x80)
            && w[4].byte == frame_checksum(w[1].byte, w[2].byte, w[3].byte);
        if valid {
            frames.push(Frame {
                seq: w[1].byte,
                attempt: w[2].byte,
                payload: w[3].byte,
            });
            i += 5;
        } else {
            i += 1;
        }
    }
    frames
}

// ---------------------------------------------------------------------
// Golden capture and faulted trials
// ---------------------------------------------------------------------

/// The reference run on continuous power, including the device's view.
#[derive(Debug, Clone)]
pub struct PeriphGolden {
    /// `print` values in emission order.
    pub prints: Vec<i32>,
    /// Valid telemetry frames on the golden wire (all attempt 0).
    pub frames: Vec<Frame>,
    /// Sensor readings the device served.
    pub served: Vec<ServedRead>,
    /// Exit code of the completed run.
    pub exit_code: i32,
    /// On-time cycles — the fault-plan span.
    pub on_cycles: u64,
}

/// One faulted replay with the device-side wire logs the oracle needs
/// (the [`crate::fault::Trial`] shape, plus everything that persists on
/// the far side of the pins).
#[derive(Debug)]
pub struct PeriphTrial {
    /// How the executor finished (or the error it surfaced).
    pub outcome: Result<RunOutcome, VmError>,
    /// The run's recorded trace.
    pub trace: Vec<TraceRecord>,
    /// Power failures injected.
    pub power_failures: u64,
    /// Stores the brown-out model corrupted.
    pub corrupted_writes: u64,
    /// On-time cycles consumed.
    pub cycles: u64,
    /// Every byte the UART device saw, torn symbols included.
    pub uart_wire: Vec<WireByte>,
    /// Sensor readings the I2C device served (completed transactions).
    pub i2c_served: Vec<ServedRead>,
}

fn prints_of(trace: &[TraceRecord]) -> Vec<i32> {
    trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Print { value } => Some(value),
            _ => None,
        })
        .collect()
}

/// Runs `prog` under `system` on continuous power and records the
/// golden trace plus the device-side logs.
///
/// # Errors
///
/// A golden run that does not finish, or that never prints, is a corpus
/// or runtime bug, not a fault-injection result.
pub fn periph_golden(prog: &Program, system: SystemUnderTest) -> Result<PeriphGolden, String> {
    let (m, exit_code) = golden_machine(prog, system)?;
    let prints = prints_of(m.trace().records());
    if prints.is_empty() {
        return Err("golden run printed nothing".to_string());
    }
    Ok(PeriphGolden {
        prints,
        frames: parse_frames(m.periph.uart.wire()),
        served: m.periph.i2c.served().to_vec(),
        exit_code,
        on_cycles: m.cycles(),
    })
}

impl ReplayRig<'_> {
    /// Replays the program with power dying per `plan` (the
    /// [`ReplayRig::run`] replay), keeping the device-side wire logs for
    /// the oracle.
    pub fn run_periph(
        &mut self,
        plan: &FaultPlan,
        budget_us: u64,
        guard_boots: u64,
    ) -> PeriphTrial {
        let (trial, wire) = self.replay(plan, budget_us, guard_boots, |m| {
            (
                m.periph.uart.wire().to_vec(),
                m.periph.i2c.served().to_vec(),
            )
        });
        let (uart_wire, i2c_served) = wire.unwrap_or_default();
        PeriphTrial {
            outcome: trial.outcome,
            trace: trial.trace,
            power_failures: trial.power_failures,
            corrupted_writes: trial.corrupted_writes,
            cycles: trial.cycles,
            uart_wire,
            i2c_served,
        }
    }
}

/// Replays `prog` under `system` with power dying per `plan`, keeping
/// the device-side wire logs for the oracle: a [`ReplayRig`] used for
/// one trial.
#[must_use]
pub fn run_periph_plan(
    prog: &Program,
    system: SystemUnderTest,
    plan: &FaultPlan,
    budget_us: u64,
    guard_boots: u64,
) -> PeriphTrial {
    ReplayRig::new(prog, system).run_periph(plan, budget_us, guard_boots)
}

/// The faulted-replay budget for a peripheral golden (the same formula
/// as [`crate::fault::fault_budget_us`]).
#[must_use]
pub fn periph_budget_us(golden: &PeriphGolden) -> u64 {
    replay_budget_us(golden.on_cycles)
}

// ---------------------------------------------------------------------
// The detect-or-recover oracle
// ---------------------------------------------------------------------

/// Degradation a recovered replay paid — never a violation, always
/// reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryNotes {
    /// Committed transactions whose app-level print never happened
    /// (power died in the commit→print window, or the txn poisoned).
    pub gaps: u64,
    /// Prints re-emitted verbatim after a reboot (checkpoint landed
    /// between `tx_commit` and `print`; content-identical, dedupable).
    pub replayed_prints: u64,
    /// TICS stale-drops: readings explicitly discarded via `@expires`.
    pub stale_drops: u64,
    /// Device-served sensor readings no print consumed (a retry after a
    /// commit-window cut re-reads; the orphan is wire-visible cost).
    pub orphan_serves: u64,
}

impl RecoveryNotes {
    fn is_clean(self) -> bool {
        self == RecoveryNotes::default()
    }
}

/// The oracle's judgment of one faulted peripheral replay.
#[derive(Debug, Clone, PartialEq)]
pub enum PeriphVerdict {
    /// Finished with golden-equivalent delivery and no degradation.
    Clean,
    /// Finished (or died loudly mid-run) with every wire invariant
    /// intact, paying the recorded degradation.
    Recovered(RecoveryNotes),
    /// Trapped loudly — fail-stop is an acceptable answer to torn wires
    /// and corrupted state; lying is not.
    Detected {
        /// Trap description.
        detail: String,
    },
    /// A wire or delivery invariant broke: duplicated `(seq, attempt)`,
    /// regressed/mutated prints, readings never served, wrong exit.
    Violation {
        /// What broke, in device-side terms.
        detail: String,
    },
    /// No progress across many consecutive reboots.
    Livelock {
        /// Reboots the guard observed.
        boots: u64,
    },
    /// Never finished inside the (generous) budget.
    Incomplete {
        /// Executor outcome text.
        outcome: String,
    },
}

impl PeriphVerdict {
    /// Short journal label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PeriphVerdict::Clean => "clean",
            PeriphVerdict::Recovered(_) => "recovered",
            PeriphVerdict::Detected { .. } => "detected",
            PeriphVerdict::Violation { .. } => "violation",
            PeriphVerdict::Livelock { .. } => "livelock",
            PeriphVerdict::Incomplete { .. } => "incomplete",
        }
    }
}

/// One decoded app-level print.
#[derive(Debug, Clone, Copy)]
struct DecodedPrint {
    id: u32,
    /// Payload carried by the print; `None` for a TICS stale-drop.
    value: Option<i32>,
    /// Reboots seen before this print (duplicates are only legal with a
    /// reboot in between).
    boot: u64,
}

fn decode_prints(
    workload: PeriphWorkload,
    trace: &[TraceRecord],
) -> Result<Vec<DecodedPrint>, String> {
    let n = workload.txns();
    let mut boots = 0u64;
    let mut out = Vec::new();
    for r in trace {
        let value = match r.event {
            TraceEvent::PowerFailure { .. } => {
                boots += 1;
                continue;
            }
            TraceEvent::Print { value } => value,
            _ => continue,
        };
        let decoded = match workload {
            PeriphWorkload::SensorLog => {
                if value < 0 {
                    DecodedPrint {
                        id: value.unsigned_abs(),
                        value: None,
                        boot: boots,
                    }
                } else {
                    DecodedPrint {
                        id: (value / 16384) as u32,
                        value: Some(value % 16384),
                        boot: boots,
                    }
                }
            }
            PeriphWorkload::Telemetry => DecodedPrint {
                id: u32::try_from(value).unwrap_or(0),
                value: Some(value),
                boot: boots,
            },
            PeriphWorkload::ReqResp => {
                if value < 0 {
                    return Err(format!("negative req/resp print {value}"));
                }
                DecodedPrint {
                    id: (value / 256) as u32,
                    value: Some(value % 256),
                    boot: boots,
                }
            }
        };
        if decoded.id == 0 || decoded.id > n {
            return Err(format!(
                "print {value} decodes to transaction id {} outside 1..={n}",
                decoded.id
            ));
        }
        out.push(decoded);
    }
    Ok(out)
}

/// Judges one faulted replay against the golden run and the device-side
/// wire logs. Wire invariants are checked on whatever prefix the run
/// emitted, so even an incomplete or livelocked replay that duplicated
/// a frame is a violation.
#[must_use]
pub fn judge_periph(
    workload: PeriphWorkload,
    golden: &PeriphGolden,
    trial: &PeriphTrial,
) -> PeriphVerdict {
    let mut notes = RecoveryNotes::default();

    // --- wire-level invariants ---
    if workload == PeriphWorkload::Telemetry {
        let frames = parse_frames(&trial.uart_wire);
        let mut seen: Vec<(u8, u8)> = Vec::new();
        for f in &frames {
            if seen.contains(&(f.seq, f.attempt)) {
                return PeriphVerdict::Violation {
                    detail: format!(
                        "frame (seq {}, attempt {}) appeared twice on the wire — \
                         a blind replay, not a tagged retry",
                        f.seq, f.attempt
                    ),
                };
            }
            seen.push((f.seq, f.attempt));
            if f.payload != expected_payload(f.seq) {
                return PeriphVerdict::Violation {
                    detail: format!(
                        "frame seq {} carries payload {} but the protocol value is {}",
                        f.seq,
                        f.payload,
                        expected_payload(f.seq)
                    ),
                };
            }
        }
    }

    // --- app-level delivery stream ---
    let prints = match decode_prints(workload, &trial.trace) {
        Ok(p) => p,
        Err(detail) => return PeriphVerdict::Violation { detail },
    };
    let mut last: Option<DecodedPrint> = None;
    let mut first_of_id: Vec<DecodedPrint> = Vec::new();
    for p in &prints {
        if let Some(prev) = last {
            if p.id < prev.id {
                return PeriphVerdict::Violation {
                    detail: format!(
                        "print stream regressed from transaction {} to {} — \
                         replayed work the journal should have skipped",
                        prev.id, p.id
                    ),
                };
            }
            if p.id == prev.id {
                if p.boot == prev.boot {
                    return PeriphVerdict::Violation {
                        detail: format!(
                            "transaction {} printed twice within one power-on period",
                            p.id
                        ),
                    };
                }
                // A fresh print replayed as a stale marker is legal
                // TICS behavior: a checkpoint sealed inside the timed
                // block replays it after the outage, and the `@expires`
                // guard now (correctly) routes the same reading to the
                // catch arm. The consumer sees an explicit discard for
                // an id it already has — annoying, not silent.
                let fresh_then_stale = prev.value.is_some() && p.value.is_none();
                if p.value != prev.value && !fresh_then_stale {
                    return PeriphVerdict::Violation {
                        detail: format!(
                            "transaction {} printed twice with different payloads \
                             ({:?} then {:?})",
                            p.id, prev.value, p.value
                        ),
                    };
                }
                notes.replayed_prints += 1;
            }
        }
        if last.is_none_or(|prev| prev.id != p.id) {
            first_of_id.push(*p);
        }
        last = Some(*p);
    }
    notes.stale_drops = first_of_id.iter().filter(|p| p.value.is_none()).count() as u64;

    // --- payload validity against the device's ground truth ---
    match workload {
        PeriphWorkload::SensorLog => {
            // Each printed reading must appear in the sensor's own
            // served log, in order. Serves without a print (a retry
            // after a commit-window cut consumed an extra reading) are
            // orphans: wire-visible cost, not a violation.
            let mut cursor = 0usize;
            for p in first_of_id.iter().filter(|p| p.value.is_some()) {
                let want = p.value.unwrap_or(0);
                let found = trial.i2c_served[cursor..]
                    .iter()
                    .position(|s| i32::from(s.value) == want);
                match found {
                    Some(off) => cursor += off + 1,
                    None => {
                        return PeriphVerdict::Violation {
                            detail: format!(
                                "transaction {} printed reading {want} but the sensor \
                                 never served it at or after serve index {cursor}",
                                p.id
                            ),
                        }
                    }
                }
            }
            // Orphans: serves no print consumed. Stale-dropped prints
            // still consumed a serve on the wire, so they count too —
            // their reading reached the MCU and was discarded.
            let matched = first_of_id.iter().filter(|p| p.value.is_some()).count();
            notes.orphan_serves = trial.i2c_served.len().saturating_sub(matched) as u64;
        }
        PeriphWorkload::Telemetry => {
            let frames = parse_frames(&trial.uart_wire);
            for p in &first_of_id {
                if !frames.iter().any(|f| u32::from(f.seq) == p.id) {
                    return PeriphVerdict::Violation {
                        detail: format!(
                            "transaction {} committed and printed but no valid frame \
                             for it ever crossed the wire",
                            p.id
                        ),
                    };
                }
            }
        }
        PeriphWorkload::ReqResp => {
            for p in &first_of_id {
                let expect = i32::from(Uart::respond(request_byte(p.id)));
                if p.value != Some(expect) {
                    return PeriphVerdict::Violation {
                        detail: format!(
                            "transaction {} printed response {:?} but the device \
                             answers {expect} — a stale FIFO byte was consumed",
                            p.id, p.value
                        ),
                    };
                }
            }
        }
    }

    // --- outcome ---
    match &trial.outcome {
        Err(VmError::NoForwardProgress { boots, .. }) => {
            return PeriphVerdict::Livelock { boots: *boots }
        }
        Err(e) => {
            return PeriphVerdict::Detected {
                detail: e.to_string(),
            }
        }
        Ok(RunOutcome::Finished(code)) => {
            if *code != golden.exit_code {
                return PeriphVerdict::Violation {
                    detail: format!(
                        "finished with exit {code}, golden exit is {}",
                        golden.exit_code
                    ),
                };
            }
            notes.gaps = u64::from(workload.txns()).saturating_sub(first_of_id.len() as u64);
        }
        Ok(RunOutcome::Starved { boots }) => return PeriphVerdict::Livelock { boots: *boots },
        Ok(other) => {
            return PeriphVerdict::Incomplete {
                outcome: format!("{other:?}"),
            }
        }
    }

    if notes.is_clean() && trial.power_failures == 0 {
        PeriphVerdict::Clean
    } else {
        PeriphVerdict::Recovered(notes)
    }
}

// ---------------------------------------------------------------------
// Cell driver
// ---------------------------------------------------------------------

/// Aggregated verdicts of one (workload × system × corruption-rate)
/// cell, judged detect-or-recover: every trial must either deliver a
/// wire-consistent stream (possibly degraded: gaps, tagged retries,
/// stale-drops) or die loudly. Silent wire corruption — duplicated
/// untagged frames, mutated or regressed prints, stale responses — is
/// the violation the gate counts.
#[derive(Debug, Clone, Default)]
pub struct PeriphReport {
    /// Trials executed.
    pub trials: u64,
    /// Finished bit-identical to golden delivery with no degradation.
    pub clean: u64,
    /// Wire-consistent with recorded degradation.
    pub recovered: u64,
    /// Died loudly (trap) with the wire still consistent.
    pub detected: u64,
    /// Wire/delivery invariant violations — the oracle's failures.
    pub violations: u64,
    /// Live-lock diagnoses.
    pub livelocks: u64,
    /// Never finished inside the budget.
    pub incomplete: u64,
    /// Driver retries across all trials (`TxnRetry` events).
    pub retries: u64,
    /// Replay skips the journal answered (`TxnSkip` events).
    pub txn_skips: u64,
    /// Transactions poisoned after exhausting the retry budget.
    pub poisoned: u64,
    /// Content-identical replayed prints (dedupable duplicates).
    pub replayed_prints: u64,
    /// Committed transactions whose print never happened.
    pub gaps: u64,
    /// TICS `@expires` stale-drops.
    pub stale_drops: u64,
    /// Sensor serves no print consumed.
    pub orphan_serves: u64,
    /// Power failures injected across all trials.
    pub failures_injected: u64,
    /// Stores the brown-out model corrupted across all trials.
    pub corrupted_writes: u64,
    /// On-time cycles simulated across all trials.
    pub total_cycles: u64,
    /// Detail of the first violation, for the journal.
    pub first_violation: Option<String>,
    /// Wire-log exhibit of the first violating trial.
    pub wire_exhibit: Option<Json>,
}

impl PeriphReport {
    /// The counters a torn-wire cell journals, in journal order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        [
            ("trials", self.trials),
            ("clean", self.clean),
            ("recovered", self.recovered),
            ("detected", self.detected),
            ("violations", self.violations),
            ("livelocks", self.livelocks),
            ("incomplete", self.incomplete),
            ("retries", self.retries),
            ("txn_skips", self.txn_skips),
            ("poisoned", self.poisoned),
            ("replayed_prints", self.replayed_prints),
            ("gaps", self.gaps),
            ("stale_drops", self.stale_drops),
            ("orphan_serves", self.orphan_serves),
            ("corrupted_writes", self.corrupted_writes),
        ]
    }

    /// Fraction of trials that stayed wire-consistent or died loudly.
    /// The gate demands `1.0` from every runtime claiming consistency.
    #[must_use]
    pub fn detect_or_recover_rate(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        1.0 - self.violations as f64 / self.trials as f64
    }
}

fn count_event(trace: &[TraceRecord], pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    trace.iter().filter(|r| pred(&r.event)).count() as u64
}

/// A JSON exhibit of one trial's device-side wire state — what a logic
/// analyzer on the bus would have captured. Written as a CI artifact
/// when the gate fails, so a violation is debuggable from the wire logs
/// alone.
#[must_use]
pub fn wire_exhibit_json(
    workload: PeriphWorkload,
    system: SystemUnderTest,
    plan: &FaultPlan,
    trial: &PeriphTrial,
    detail: &str,
) -> Json {
    let wire_tail: Vec<Json> = trial
        .uart_wire
        .iter()
        .rev()
        .take(160)
        .rev()
        .map(|b| {
            Json::obj()
                .field("byte", u32::from(b.byte))
                .field("torn", b.torn)
                .field("at_us", b.at_us)
                .build()
        })
        .collect();
    let frames: Vec<Json> = parse_frames(&trial.uart_wire)
        .iter()
        .map(|f| {
            Json::obj()
                .field("seq", u32::from(f.seq))
                .field("attempt", u32::from(f.attempt))
                .field("payload", u32::from(f.payload))
                .build()
        })
        .collect();
    let served: Vec<Json> = trial
        .i2c_served
        .iter()
        .map(|s| {
            Json::obj()
                .field("index", s.index)
                .field("value", u32::from(s.value))
                .field("at_us", s.at_us)
                .build()
        })
        .collect();
    Json::obj()
        .field("workload", workload.name())
        .field("system", system.name())
        .field("detail", detail)
        .field("cuts", crate::fault::cuts_string(plan))
        .field("power_failures", trial.power_failures)
        .field("corrupted_writes", trial.corrupted_writes)
        .field("prints", prints_of(&trial.trace))
        .field("uart_wire_tail", Json::Arr(wire_tail))
        .field("frames", Json::Arr(frames))
        .field("i2c_served", Json::Arr(served))
        .build()
}

/// Runs `trials` seeded multi-cut plans (brown-out corruption at `rate`
/// riding on every cut when `rate > 0`) and folds the detect-or-recover
/// verdicts. Deterministic: same seed, same plans, same wire streams —
/// golden and faulted runs share [`tics_vm::MachineConfig::default`],
/// so the sensor serves the same reading series.
#[must_use]
pub fn run_periph_cell(
    workload: PeriphWorkload,
    prog: &Program,
    system: SystemUnderTest,
    golden: &PeriphGolden,
    rate: f64,
    trials: usize,
    seed: u64,
) -> PeriphReport {
    let budget = periph_budget_us(golden);
    let mut rig = ReplayRig::new(prog, system);
    let mut report = PeriphReport::default();
    for i in 0..trials {
        let plan = chaos_plan(seed, i, golden.on_cycles, (rate > 0.0).then_some(rate));
        let trial = rig.run_periph(&plan, budget, GUARD_BOOTS);
        let verdict = judge_periph(workload, golden, &trial);
        report.trials += 1;
        report.failures_injected += trial.power_failures;
        report.corrupted_writes += trial.corrupted_writes;
        report.total_cycles += trial.cycles;
        report.retries += count_event(&trial.trace, |e| matches!(e, TraceEvent::TxnRetry { .. }));
        report.txn_skips += count_event(&trial.trace, |e| matches!(e, TraceEvent::TxnSkip { .. }));
        report.poisoned += count_event(&trial.trace, |e| {
            matches!(e, TraceEvent::TxnPoisoned { .. })
        });
        match &verdict {
            PeriphVerdict::Clean => report.clean += 1,
            PeriphVerdict::Recovered(n) => {
                report.recovered += 1;
                report.replayed_prints += n.replayed_prints;
                report.gaps += n.gaps;
                report.stale_drops += n.stale_drops;
                report.orphan_serves += n.orphan_serves;
            }
            PeriphVerdict::Detected { .. } => report.detected += 1,
            PeriphVerdict::Violation { detail } => {
                report.violations += 1;
                if report.first_violation.is_none() {
                    report.first_violation = Some(detail.clone());
                    report.wire_exhibit =
                        Some(wire_exhibit_json(workload, system, &plan, &trial, detail));
                }
            }
            PeriphVerdict::Livelock { .. } => report.livelocks += 1,
            PeriphVerdict::Incomplete { .. } => report.incomplete += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{run_plan, OFF_US};
    use tics_trace::I2cPhase;

    fn wire(bytes: &[(u8, bool)]) -> Vec<WireByte> {
        bytes
            .iter()
            .enumerate()
            .map(|(i, &(byte, torn))| WireByte {
                byte,
                torn,
                at_us: i as u64 * 10,
            })
            .collect()
    }

    fn frame_bytes(seq: u8, attempt: u8) -> [(u8, bool); 5] {
        let p = expected_payload(seq);
        [
            (TELEMETRY_HDR, false),
            (seq, false),
            (attempt, false),
            (p, false),
            (frame_checksum(seq, attempt, p), false),
        ]
    }

    #[test]
    fn parser_extracts_frames_and_skips_torn_garbage() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame_bytes(1, 0));
        // A torn partial frame (power died mid-send) …
        bytes.push((TELEMETRY_HDR, false));
        bytes.push((2, false));
        bytes.push((0, true));
        // … then the tagged retry.
        bytes.extend_from_slice(&frame_bytes(2, 1));
        let frames = parse_frames(&wire(&bytes));
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0].seq, frames[0].attempt), (1, 0));
        assert_eq!((frames[1].seq, frames[1].attempt), (2, 1));
    }

    #[test]
    fn parser_never_accepts_a_partial_prefix_as_a_frame() {
        // An untorn partial header followed by a real frame must not
        // fuse into a bogus frame: non-header bytes are all < 0x80, so
        // the embedded 0xA5 disqualifies the misaligned window.
        let mut bytes = vec![(TELEMETRY_HDR, false), (3, false), (0, false)];
        bytes.extend_from_slice(&frame_bytes(3, 1));
        let frames = parse_frames(&wire(&bytes));
        assert_eq!(frames.len(), 1);
        assert_eq!((frames[0].seq, frames[0].attempt), (3, 1));
    }

    fn print_rec(value: i32, at_us: u64) -> TraceRecord {
        TraceRecord {
            at_us,
            cycle: at_us,
            event: TraceEvent::Print { value },
        }
    }

    fn failure_rec(at_us: u64) -> TraceRecord {
        TraceRecord {
            at_us,
            cycle: at_us,
            event: TraceEvent::PowerFailure { off_us: OFF_US },
        }
    }

    fn served(values: &[u16]) -> Vec<ServedRead> {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| ServedRead {
                index: i as u32,
                value,
                at_us: i as u64 * 100,
            })
            .collect()
    }

    fn sensor_golden() -> PeriphGolden {
        PeriphGolden {
            prints: (1..=SENSOR_TXNS as i32)
                .map(|id| id * 16384 + 100 + id)
                .collect(),
            frames: Vec::new(),
            served: served(&[101, 102, 103]),
            exit_code: 0,
            on_cycles: 10_000,
        }
    }

    fn sensor_trial(trace: Vec<TraceRecord>, serves: &[u16]) -> PeriphTrial {
        PeriphTrial {
            outcome: Ok(RunOutcome::Finished(0)),
            trace,
            power_failures: 1,
            corrupted_writes: 0,
            cycles: 5_000,
            uart_wire: Vec::new(),
            i2c_served: served(serves),
        }
    }

    #[test]
    fn oracle_accepts_gaps_and_identical_replayed_prints() {
        // Prints for ids 1 and 2 (id 2 replayed verbatim after a
        // reboot), id 3 committed but its print gapped out; ids 4..=10
        // also gapped (run "finished" early in this synthetic trace).
        let trace = vec![
            print_rec(16384 + 101, 10),
            print_rec(2 * 16384 + 102, 20),
            failure_rec(30),
            print_rec(2 * 16384 + 102, 40),
        ];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(trace, &[101, 102, 103]),
        );
        match v {
            PeriphVerdict::Recovered(n) => {
                assert_eq!(n.replayed_prints, 1);
                assert_eq!(n.gaps, 8);
                assert_eq!(n.orphan_serves, 1);
            }
            other => panic!("expected recovered, got {other:?}"),
        }
    }

    #[test]
    fn oracle_flags_duplicate_print_with_mutated_payload() {
        // The naive signature on the sensor: a replayed transaction
        // re-reads the device (cursor advanced) and prints a different
        // reading under the same id.
        let trace = vec![
            print_rec(16384 + 101, 10),
            failure_rec(20),
            print_rec(16384 + 102, 30),
        ];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(trace, &[101, 102]),
        );
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");
    }

    #[test]
    fn oracle_accepts_fresh_print_replayed_as_stale_marker() {
        // TICS seals a checkpoint inside the timed block: a cut after
        // the fresh print replays the block, and `@expires` now routes
        // the same reading to the catch arm. Fresh-then-stale across a
        // reboot is recovery; the reverse order (or either within one
        // boot) stays a violation, because time only moves forward.
        let trace = vec![
            print_rec(16384 + 101, 10),
            failure_rec(20),
            print_rec(-1, 30),
        ];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(trace, &[101]),
        );
        match v {
            PeriphVerdict::Recovered(n) => assert_eq!(n.replayed_prints, 1),
            other => panic!("expected recovered, got {other:?}"),
        }

        let stale_then_fresh = vec![
            print_rec(-1, 10),
            failure_rec(20),
            print_rec(16384 + 101, 30),
        ];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(stale_then_fresh, &[101]),
        );
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");

        let same_boot = vec![print_rec(16384 + 101, 10), print_rec(-1, 20)];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(same_boot, &[101]),
        );
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");
    }

    #[test]
    fn oracle_flags_regressed_print_stream() {
        // The bare-runtime signature: main restarts, ids start over.
        let trace = vec![
            print_rec(16384 + 101, 10),
            print_rec(2 * 16384 + 102, 20),
            failure_rec(30),
            print_rec(16384 + 103, 40),
        ];
        let v = judge_periph(
            PeriphWorkload::SensorLog,
            &sensor_golden(),
            &sensor_trial(trace, &[101, 102, 103]),
        );
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");
    }

    #[test]
    fn oracle_flags_duplicate_untagged_frame() {
        let golden = PeriphGolden {
            prints: vec![1],
            frames: Vec::new(),
            served: Vec::new(),
            exit_code: 0,
            on_cycles: 10_000,
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame_bytes(1, 0));
        bytes.extend_from_slice(&frame_bytes(1, 0)); // blind replay
        let trial = PeriphTrial {
            outcome: Ok(RunOutcome::Finished(0)),
            trace: vec![print_rec(1, 10)],
            power_failures: 1,
            corrupted_writes: 0,
            cycles: 5_000,
            uart_wire: wire(&bytes),
            i2c_served: Vec::new(),
        };
        let v = judge_periph(PeriphWorkload::Telemetry, &golden, &trial);
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");
    }

    #[test]
    fn oracle_accepts_attempt_tagged_retry() {
        let golden = PeriphGolden {
            prints: vec![1],
            frames: Vec::new(),
            served: Vec::new(),
            exit_code: 0,
            on_cycles: 10_000,
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame_bytes(1, 0));
        bytes.extend_from_slice(&frame_bytes(1, 1)); // tagged retry
        let trial = PeriphTrial {
            outcome: Ok(RunOutcome::Finished(0)),
            trace: vec![print_rec(1, 10)],
            power_failures: 1,
            corrupted_writes: 0,
            cycles: 5_000,
            uart_wire: wire(&bytes),
            i2c_served: Vec::new(),
        };
        let v = judge_periph(PeriphWorkload::Telemetry, &golden, &trial);
        match v {
            PeriphVerdict::Recovered(n) => assert_eq!(n.gaps, TELEMETRY_TXNS as u64 - 1),
            other => panic!("expected recovered, got {other:?}"),
        }
    }

    #[test]
    fn oracle_flags_stale_reqresp_payload() {
        let golden = PeriphGolden {
            prints: vec![256 + i32::from(Uart::respond(request_byte(1)))],
            frames: Vec::new(),
            served: Vec::new(),
            exit_code: 0,
            on_cycles: 10_000,
        };
        let wrong = i32::from(Uart::respond(request_byte(2)));
        let trial = PeriphTrial {
            outcome: Ok(RunOutcome::Finished(0)),
            trace: vec![print_rec(256 + wrong, 10)],
            power_failures: 1,
            corrupted_writes: 0,
            cycles: 5_000,
            uart_wire: Vec::new(),
            i2c_served: Vec::new(),
        };
        let v = judge_periph(PeriphWorkload::ReqResp, &golden, &trial);
        assert!(matches!(v, PeriphVerdict::Violation { .. }), "got {v:?}");
    }

    #[test]
    fn goldens_run_on_every_feasible_system() {
        for workload in PeriphWorkload::ALL {
            for system in SystemUnderTest::ALL {
                let prog = match build_periph_program(workload, system) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                let golden = periph_golden(&prog, system)
                    .unwrap_or_else(|e| panic!("{} x {}: {e}", workload.name(), system.name()));
                assert_eq!(
                    golden.exit_code,
                    0,
                    "{} x {}",
                    workload.name(),
                    system.name()
                );
                assert_eq!(
                    golden.prints.len(),
                    workload.txns() as usize,
                    "{} x {}",
                    workload.name(),
                    system.name()
                );
                // The golden replay must judge itself clean.
                let trial = run_periph_plan(
                    &prog,
                    system,
                    &FaultPlan::new(Vec::new(), OFF_US),
                    periph_budget_us(&golden),
                    GUARD_BOOTS,
                );
                let v = judge_periph(workload, &golden, &trial);
                assert_eq!(
                    v,
                    PeriphVerdict::Clean,
                    "{} x {}",
                    workload.name(),
                    system.name()
                );
                match workload {
                    PeriphWorkload::SensorLog => {
                        assert_eq!(golden.served.len(), SENSOR_TXNS as usize);
                    }
                    PeriphWorkload::Telemetry => {
                        assert_eq!(golden.frames.len(), TELEMETRY_TXNS as usize);
                        assert!(golden.frames.iter().all(|f| f.attempt == 0));
                    }
                    PeriphWorkload::ReqResp => {}
                }
            }
        }
    }

    #[test]
    fn hardened_tics_survives_an_adversarial_cut_burst() {
        let workload = PeriphWorkload::Telemetry;
        let prog = build_periph_program(workload, SystemUnderTest::Tics).unwrap();
        let golden = periph_golden(&prog, SystemUnderTest::Tics).unwrap();
        let report = run_periph_cell(
            workload,
            &prog,
            SystemUnderTest::Tics,
            &golden,
            0.0,
            8,
            0x7E57_5EED,
        );
        assert_eq!(
            report.violations, 0,
            "tics violated: {:?}",
            report.first_violation
        );
        assert!(report.failures_injected > 0);
    }

    #[test]
    fn event_and_wire_trials_are_views_of_one_replay() {
        // The event-prefix oracle and the torn-wire oracle must judge the
        // same run: one plan with brown-out corruption, replayed through
        // both trial views, yields one outcome, trace and counter set.
        let system = SystemUnderTest::Tics;
        let prog = build_periph_program(PeriphWorkload::SensorLog, system).unwrap();
        let golden = periph_golden(&prog, system).unwrap();
        let plan = chaos_plan(0x7E57_5EED, 2, golden.on_cycles, Some(0.5));
        let budget = periph_budget_us(&golden);
        let event = run_plan(&prog, system, &plan, budget, GUARD_BOOTS);
        let wire = run_periph_plan(&prog, system, &plan, budget, GUARD_BOOTS);
        assert!(
            event.corrupted_writes > 0,
            "corruption never fired: {plan:?}"
        );
        assert_eq!(event.outcome, wire.outcome);
        assert_eq!(event.trace, wire.trace);
        assert_eq!(event.power_failures, wire.power_failures);
        assert_eq!(event.corrupted_writes, wire.corrupted_writes);
        assert_eq!(event.cycles, wire.cycles);
    }

    #[test]
    fn i2c_phase_label_round_trip_used_by_exhibits() {
        // Exhibits print phases by label; keep the enum covered.
        for op in [
            I2cPhase::Start,
            I2cPhase::Write,
            I2cPhase::Read,
            I2cPhase::Stop,
            I2cPhase::Reset,
        ] {
            assert!(!op.label().is_empty());
        }
    }
}
