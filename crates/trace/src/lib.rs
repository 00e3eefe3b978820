//! # tics-trace — one structured event stream for the whole simulator
//!
//! Every headline number in the paper is an answer to "where did the
//! cycles go and what did the outside world see": Table 4 prices single
//! runtime operations, Figure 9 splits benchmark time into app vs.
//! runtime work, and Table 2's violations are read off an external
//! logic-analyzer timeline. This crate is the substrate all of those
//! share:
//!
//! * [`TraceEvent`] — typed events (boots, power failures, checkpoint
//!   commits, undo-log traffic, radio sends, sensor samples, ...), each
//!   recorded with the *true* wall-clock microsecond and the cycle
//!   position at which it happened ([`TraceRecord`]).
//! * [`SpanKind`] — cycle attribution categories. The machine charges
//!   every consumed cycle to the currently-open span, so
//!   `Σ span_cycles == total cycles` holds by construction.
//! * [`TraceSink`] — the per-machine event buffer. The hot path is one
//!   branch plus an amortized `Vec` push; high-volume runtime-internal
//!   events (span transitions, undo appends, ...) are retained only when
//!   detailed recording is enabled, while timeline events — the ones the
//!   violation and fault oracles replay — are always kept.
//! * [`chrome_trace_json`] — export of a recorded stream in the Chrome
//!   `chrome://tracing` / Perfetto JSON format.
//!
//! The crate is dependency-free and sits below `tics-mcu` in the
//! workspace graph so the memory system itself can attribute cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Cycle-attribution category: who is the machine doing work for right
/// now. Exactly one span is open at any instant; the memory system
/// charges every cycle it accounts to the open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanKind {
    /// Application work: bytecode execution and its memory traffic.
    #[default]
    App,
    /// Committing a checkpoint (Table 4's checkpoint rows).
    Checkpoint,
    /// Restoring a checkpoint after a reboot.
    Restore,
    /// Undo-log bookkeeping: pointer classification and log appends.
    UndoLog,
    /// Rolling the undo log back after a failure.
    Rollback,
    /// Stack-segment management (TICS segment grow/shrink switches).
    StackSegment,
    /// Interrupt service routine execution.
    Isr,
    /// Transactional peripheral-driver work: journal writes, boot-time
    /// reconciliation, and retry backoff.
    Driver,
}

impl SpanKind {
    /// Number of span kinds (length of [`SpanKind::ALL`]).
    pub const COUNT: usize = 8;

    /// Every span kind, in index order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::App,
        SpanKind::Checkpoint,
        SpanKind::Restore,
        SpanKind::UndoLog,
        SpanKind::Rollback,
        SpanKind::StackSegment,
        SpanKind::Isr,
        SpanKind::Driver,
    ];

    /// Dense index into a `[u64; SpanKind::COUNT]` accumulator.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SpanKind::App => 0,
            SpanKind::Checkpoint => 1,
            SpanKind::Restore => 2,
            SpanKind::UndoLog => 3,
            SpanKind::Rollback => 4,
            SpanKind::StackSegment => 5,
            SpanKind::Isr => 6,
            SpanKind::Driver => 7,
        }
    }

    /// Stable lowercase label (journal keys, Chrome trace names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::App => "app",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Restore => "restore",
            SpanKind::UndoLog => "undo_log",
            SpanKind::Rollback => "rollback",
            SpanKind::StackSegment => "stack_segment",
            SpanKind::Isr => "isr",
            SpanKind::Driver => "driver",
        }
    }

    /// Whether this span counts as runtime overhead (everything except
    /// application and ISR work) in Figure-9-style breakdowns.
    #[must_use]
    pub fn is_runtime(self) -> bool {
        !matches!(self, SpanKind::App | SpanKind::Isr)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a checkpoint was committed: a request the VM hands a runtime as
/// a `CheckpointKind` (a site or the voltage warning), or one of the
/// runtime's own commits (timer, forced, ISR). Kept here so lower layers
/// need not depend on the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptCause {
    /// An inserted or manual checkpoint site in the code.
    Site,
    /// The runtime's periodic timer fired.
    Timer,
    /// The supply's low-voltage interrupt fired.
    Voltage,
    /// The undo log filled up and forced an early commit.
    Forced,
    /// An implicit commit around interrupt handling.
    Isr,
}

impl CkptCause {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CkptCause::Site => "site",
            CkptCause::Timer => "timer",
            CkptCause::Voltage => "voltage",
            CkptCause::Forced => "forced",
            CkptCause::Isr => "isr",
        }
    }
}

/// One typed simulator event. Variants marked *timeline* are externally
/// visible or timing-relevant and are always retained by a
/// [`TraceSink`]; the rest are runtime-internal detail retained only in
/// detailed mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A (re)boot began (timeline).
    Boot,
    /// Power failed; the supply stays dark for `off_us` µs (timeline).
    PowerFailure {
        /// Outage length in µs.
        off_us: u64,
    },
    /// A checkpoint committed `bytes` bytes (timeline).
    CheckpointCommit {
        /// Why the commit happened.
        cause: CkptCause,
        /// Bytes of state committed.
        bytes: u64,
    },
    /// A checkpoint was restored after a reboot (timeline).
    Restore {
        /// Bytes of state restored.
        bytes: u64,
    },
    /// Checkpoint validation found corruption at reboot and the runtime
    /// recovered instead of restoring garbage (timeline). One invalid
    /// bank means the runtime fell back to the older valid bank; two
    /// means both failed CRC validation and execution degraded to a
    /// fresh start.
    Recovery {
        /// Number of checkpoint banks that failed validation (1 or 2).
        invalid_banks: u32,
        /// Whether recovery degraded to a fresh start from `main`.
        fresh_start: bool,
    },
    /// One undo-log entry of `bytes` bytes was appended (detail).
    UndoAppend {
        /// Bytes of old value logged.
        bytes: u64,
    },
    /// One undo-log entry was rolled back (detail).
    Rollback {
        /// Bytes of old value restored.
        bytes: u64,
    },
    /// A cycle-accounted store was truncated by the power cut; `count`
    /// stores tore since the previous report (timeline).
    TornWrite {
        /// Newly torn stores.
        count: u64,
    },
    /// `mark(id)` executed (timeline, externally visible).
    Mark {
        /// Mark identifier.
        id: i32,
    },
    /// `send(value)` transmitted (timeline, externally visible).
    Send {
        /// Transmitted value.
        value: i32,
    },
    /// A sensor sample was taken (timeline, externally visible).
    Sample {
        /// Sampled value.
        value: i32,
    },
    /// `print(value)` executed (timeline, externally visible).
    Print {
        /// Printed value.
        value: i32,
    },
    /// `led(x)` toggled (timeline, externally visible).
    Led {
        /// LED argument.
        value: i32,
    },
    /// Interrupt service routine entered (timeline).
    IsrEnter,
    /// Interrupt service routine returned (timeline).
    IsrExit,
    /// An `@expires` guard found its data stale and discarded it
    /// (timeline).
    ExpireDiscard,
    /// An `@expires`/`catch` block was aborted by the expiration timer
    /// (timeline).
    ExpiresCatch,
    /// A `@timely` branch was skipped because its deadline had passed
    /// (timeline).
    TimelyMiss,
    /// The TICS stack grew by one segment switch (detail).
    StackGrow,
    /// The TICS stack shrank by one segment switch (detail).
    StackShrink,
    /// A cycle-attribution span opened (detail).
    SpanEnter {
        /// The span being opened.
        kind: SpanKind,
    },
    /// A cycle-attribution span closed (detail).
    SpanExit {
        /// The span being closed.
        kind: SpanKind,
    },
    /// One byte was clocked onto the UART wire (timeline, externally
    /// visible — the byte left the chip). `torn` means the power cut
    /// landed mid-byte: the device saw a half-clocked, unusable symbol.
    UartTx {
        /// The byte value the MCU attempted to transmit.
        byte: u8,
        /// Whether the byte was torn by the energy deadline.
        torn: bool,
    },
    /// The MCU read one byte from the UART RX FIFO (timeline). `byte`
    /// is `-1` when the FIFO and the device's outbound queue were both
    /// empty.
    UartRx {
        /// The byte read, or `-1` for an empty read.
        byte: i32,
    },
    /// One I2C bus phase executed (timeline, externally visible — bus
    /// activity the device observed).
    I2cOp {
        /// Which phase (START/write/read/STOP/bus-clear).
        op: I2cPhase,
        /// Phase payload: address for START, data byte for write/read,
        /// zero otherwise.
        value: u8,
        /// Whether the device acknowledged the phase. A NACK means a
        /// protocol violation (e.g. START while the device was mid-
        /// transaction from before a reboot) or a torn phase.
        ack: bool,
    },
    /// A peripheral transaction descriptor was journaled (timeline).
    TxnBegin {
        /// Application transaction id.
        id: u32,
    },
    /// A journaled transaction committed: its wire effects are now
    /// exactly-once (timeline).
    TxnCommit {
        /// Application transaction id.
        id: u32,
    },
    /// An in-flight transaction was found at reboot (or re-entered) and
    /// classified retryable; the driver charged `backoff` cycles of
    /// exponential backoff before attempt `attempt` (timeline).
    TxnRetry {
        /// Application transaction id.
        id: u32,
        /// Retry attempt number (1-based: attempt 0 was the original).
        attempt: u32,
        /// Backoff cycles charged before this attempt.
        backoff: u64,
    },
    /// A transaction exhausted its retry budget and was poisoned — the
    /// driver refuses further attempts and the application degrades
    /// gracefully (timeline).
    TxnPoisoned {
        /// Application transaction id.
        id: u32,
    },
    /// A transaction already marked committed was skipped on replay —
    /// the duplicate side effect the journal exists to prevent
    /// (timeline).
    TxnSkip {
        /// Application transaction id.
        id: u32,
    },
}

/// The I2C bus phases a [`TraceEvent::I2cOp`] can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum I2cPhase {
    /// START condition + address byte.
    Start,
    /// One data byte written to the device.
    Write,
    /// One data byte read from the device.
    Read,
    /// STOP condition: the device commits the transaction.
    Stop,
    /// Bus-clear (nine clock pulses): aborts any half-completed
    /// device-side transaction without committing it.
    Reset,
}

impl I2cPhase {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            I2cPhase::Start => "start",
            I2cPhase::Write => "write",
            I2cPhase::Read => "read",
            I2cPhase::Stop => "stop",
            I2cPhase::Reset => "reset",
        }
    }
}

impl TraceEvent {
    /// Whether the outside world (the paper's logic analyzer) can see
    /// this event. This is the **single definition** of visibility: the
    /// executor's forward-progress guard and the fault oracle both count
    /// progress through it, so they can never disagree.
    #[must_use]
    pub fn is_externally_visible(&self) -> bool {
        matches!(
            self,
            TraceEvent::Mark { .. }
                | TraceEvent::Send { .. }
                | TraceEvent::Sample { .. }
                | TraceEvent::Print { .. }
                | TraceEvent::Led { .. }
                | TraceEvent::UartTx { .. }
                | TraceEvent::I2cOp { .. }
        )
    }

    /// Whether the event is high-volume runtime-internal detail, dropped
    /// by a [`TraceSink`] unless detailed recording is on.
    #[must_use]
    pub fn is_detail(&self) -> bool {
        matches!(
            self,
            TraceEvent::UndoAppend { .. }
                | TraceEvent::Rollback { .. }
                | TraceEvent::StackGrow
                | TraceEvent::StackShrink
                | TraceEvent::SpanEnter { .. }
                | TraceEvent::SpanExit { .. }
        )
    }

    /// Short stable name (Chrome trace event names).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Boot => "boot",
            TraceEvent::PowerFailure { .. } => "power_failure",
            TraceEvent::CheckpointCommit { .. } => "checkpoint_commit",
            TraceEvent::Restore { .. } => "restore",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::UndoAppend { .. } => "undo_append",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::TornWrite { .. } => "torn_write",
            TraceEvent::Mark { .. } => "mark",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Sample { .. } => "sample",
            TraceEvent::Print { .. } => "print",
            TraceEvent::Led { .. } => "led",
            TraceEvent::IsrEnter => "isr_enter",
            TraceEvent::IsrExit => "isr_exit",
            TraceEvent::ExpireDiscard => "expire_discard",
            TraceEvent::ExpiresCatch => "expires_catch",
            TraceEvent::TimelyMiss => "timely_miss",
            TraceEvent::StackGrow => "stack_grow",
            TraceEvent::StackShrink => "stack_shrink",
            TraceEvent::SpanEnter { .. } => "span_enter",
            TraceEvent::SpanExit { .. } => "span_exit",
            TraceEvent::UartTx { .. } => "uart_tx",
            TraceEvent::UartRx { .. } => "uart_rx",
            TraceEvent::I2cOp { .. } => "i2c_op",
            TraceEvent::TxnBegin { .. } => "txn_begin",
            TraceEvent::TxnCommit { .. } => "txn_commit",
            TraceEvent::TxnRetry { .. } => "txn_retry",
            TraceEvent::TxnPoisoned { .. } => "txn_poisoned",
            TraceEvent::TxnSkip { .. } => "txn_skip",
        }
    }
}

/// One recorded event: what happened, and exactly when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// True wall-clock µs (on-time cycles plus all outage time) — the
    /// simulation's logic-analyzer timestamp.
    pub at_us: u64,
    /// Cycle counter position (on-time only).
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

/// The per-machine event buffer. The machine pushes each record the
/// moment the event is emitted, after folding it into its counters, so
/// the sink never lags the machine.
///
/// Always cheap: the push path is a visibility-counter increment, one
/// retention branch, and an amortized `Vec` push. Timeline events are
/// always retained; detail events ([`TraceEvent::is_detail`]) only when
/// [`TraceSink::set_detailed`] has enabled full recording (profiling /
/// Chrome export).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    visible: u64,
    detailed: bool,
}

impl TraceSink {
    /// An empty sink in timeline-only mode.
    #[must_use]
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Enables (or disables) retention of detail events. Cycle
    /// *attribution* is unaffected — spans are charged in the memory
    /// system whether or not their enter/exit records are kept.
    pub fn set_detailed(&mut self, detailed: bool) {
        self.detailed = detailed;
    }

    /// Appends one record (folding its visibility into the incremental
    /// counter first, so retention policy can never skew progress
    /// accounting).
    pub fn push(&mut self, rec: TraceRecord) {
        if rec.event.is_externally_visible() {
            self.visible += 1;
        }
        if self.detailed || !rec.event.is_detail() {
            self.records.push(rec);
        }
    }

    /// Count of externally visible events so far (sends, marks, samples,
    /// prints, LED toggles). The executor's forward-progress guard treats
    /// any increase as progress even when no checkpoint was committed —
    /// an unprotected runtime re-executing from `main` still *does*
    /// things the outside world can see.
    #[must_use]
    pub fn visible_events(&self) -> u64 {
        self.visible
    }

    /// Retained records, in emission order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Returns the sink to its as-constructed state (timeline-only mode,
    /// no records, zero visibility counter) while keeping the record
    /// buffer's allocation — the fleet engine recycles one sink across
    /// thousands of devices.
    pub fn reset(&mut self) {
        self.records.clear();
        self.visible = 0;
        self.detailed = false;
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Counts externally visible events in a recorded stream with the same
/// predicate the live [`TraceSink::visible_events`] counter uses.
#[must_use]
pub fn visible_event_count(records: &[TraceRecord]) -> u64 {
    records
        .iter()
        .filter(|r| r.event.is_externally_visible())
        .count() as u64
}

fn push_chrome_event(
    out: &mut String,
    first: &mut bool,
    ph: char,
    name: &str,
    ts: u64,
    args: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":1"
    ));
    if !args.is_empty() {
        out.push_str(&format!(",\"args\":{{{args}}}"));
    }
    if ph == 'i' {
        out.push_str(",\"s\":\"t\"");
    }
    out.push('}');
}

/// Renders a recorded stream as Chrome `chrome://tracing` JSON.
///
/// Span enter/exit pairs become duration (`B`/`E`) events; everything
/// else becomes an instant (`i`) event. Timestamps are the true
/// wall-clock µs, so outages show up as gaps on the timeline. The output
/// is a complete JSON object loadable by `chrome://tracing` or Perfetto.
#[must_use]
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for r in records {
        match r.event {
            TraceEvent::SpanEnter { kind } => {
                push_chrome_event(&mut out, &mut first, 'B', kind.label(), r.at_us, "");
            }
            TraceEvent::SpanExit { kind } => {
                push_chrome_event(&mut out, &mut first, 'E', kind.label(), r.at_us, "");
            }
            ev => {
                let args = match ev {
                    TraceEvent::PowerFailure { off_us } => format!("\"off_us\":{off_us}"),
                    TraceEvent::CheckpointCommit { cause, bytes } => {
                        format!("\"cause\":\"{}\",\"bytes\":{bytes}", cause.label())
                    }
                    TraceEvent::Restore { bytes }
                    | TraceEvent::UndoAppend { bytes }
                    | TraceEvent::Rollback { bytes } => format!("\"bytes\":{bytes}"),
                    TraceEvent::TornWrite { count } => format!("\"count\":{count}"),
                    TraceEvent::Recovery {
                        invalid_banks,
                        fresh_start,
                    } => format!("\"invalid_banks\":{invalid_banks},\"fresh_start\":{fresh_start}"),
                    TraceEvent::Mark { id } => format!("\"id\":{id}"),
                    TraceEvent::Send { value }
                    | TraceEvent::Sample { value }
                    | TraceEvent::Print { value }
                    | TraceEvent::Led { value } => format!("\"value\":{value}"),
                    TraceEvent::UartTx { byte, torn } => {
                        format!("\"byte\":{byte},\"torn\":{torn}")
                    }
                    TraceEvent::UartRx { byte } => format!("\"byte\":{byte}"),
                    TraceEvent::I2cOp { op, value, ack } => {
                        format!("\"op\":\"{}\",\"value\":{value},\"ack\":{ack}", op.label())
                    }
                    TraceEvent::TxnBegin { id }
                    | TraceEvent::TxnCommit { id }
                    | TraceEvent::TxnPoisoned { id }
                    | TraceEvent::TxnSkip { id } => format!("\"id\":{id}"),
                    TraceEvent::TxnRetry {
                        id,
                        attempt,
                        backoff,
                    } => format!("\"id\":{id},\"attempt\":{attempt},\"backoff\":{backoff}"),
                    _ => String::new(),
                };
                push_chrome_event(&mut out, &mut first, 'i', ev.name(), r.at_us, &args);
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_us: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_us,
            cycle: at_us,
            event,
        }
    }

    #[test]
    fn span_indices_are_dense_and_distinct() {
        let mut seen = [false; SpanKind::COUNT];
        for k in SpanKind::ALL {
            assert!(!seen[k.index()], "duplicate index for {k}");
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn visible_counter_matches_fold() {
        let mut sink = TraceSink::new();
        let events = [
            TraceEvent::Boot,
            TraceEvent::Mark { id: 1 },
            TraceEvent::Send { value: 7 },
            TraceEvent::UndoAppend { bytes: 4 },
            TraceEvent::Sample { value: 3 },
            TraceEvent::PowerFailure { off_us: 100 },
            TraceEvent::Print { value: 9 },
            TraceEvent::Led { value: 1 },
            // A torn TX byte still left the pin, and every I2C bus
            // operation reaches the device: both are visible.
            TraceEvent::UartTx {
                byte: 0x01,
                torn: true,
            },
            TraceEvent::I2cOp {
                op: I2cPhase::Start,
                value: 0x40,
                ack: true,
            },
            TraceEvent::UartRx { byte: 0x42 },
        ];
        for (i, e) in events.into_iter().enumerate() {
            sink.push(rec(i as u64, e));
        }
        assert_eq!(sink.visible_events(), 7);
        assert_eq!(visible_event_count(sink.records()), 7);
    }

    #[test]
    fn timeline_mode_drops_detail_but_counts_visibility() {
        let mut sink = TraceSink::new();
        sink.push(rec(
            0,
            TraceEvent::SpanEnter {
                kind: SpanKind::UndoLog,
            },
        ));
        sink.push(rec(1, TraceEvent::UndoAppend { bytes: 4 }));
        sink.push(rec(
            2,
            TraceEvent::SpanExit {
                kind: SpanKind::UndoLog,
            },
        ));
        sink.push(rec(3, TraceEvent::Mark { id: 1 }));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.records()[0].event, TraceEvent::Mark { id: 1 });

        let mut detailed = TraceSink::new();
        detailed.set_detailed(true);
        detailed.push(rec(0, TraceEvent::UndoAppend { bytes: 4 }));
        assert_eq!(detailed.len(), 1);
    }

    #[test]
    fn chrome_export_pairs_spans_and_is_balanced_json() {
        let records = vec![
            rec(0, TraceEvent::Boot),
            rec(
                5,
                TraceEvent::SpanEnter {
                    kind: SpanKind::Checkpoint,
                },
            ),
            rec(
                40,
                TraceEvent::CheckpointCommit {
                    cause: CkptCause::Site,
                    bytes: 128,
                },
            ),
            rec(
                41,
                TraceEvent::SpanExit {
                    kind: SpanKind::Checkpoint,
                },
            ),
            rec(50, TraceEvent::Send { value: -3 }),
        ];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"checkpoint\""));
        assert!(json.contains("\"value\":-3"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",]"));
    }

    #[test]
    fn empty_trace_exports_valid_json() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\":[]"));
    }
}
