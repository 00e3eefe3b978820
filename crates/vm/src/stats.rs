//! Execution statistics: an incremental fold over the structured trace.
//!
//! Historically these counters were updated ad hoc at dozens of call
//! sites, with parallel structures (`marks` next to `marks_timed`,
//! `sends` next to `sends_timed`) that could silently diverge. They are
//! now maintained in exactly one place — [`ExecStats::fold_event`],
//! called by [`Machine::emit`](crate::Machine::emit) for every
//! [`TraceEvent`] — and the un-timed views are derived accessors over
//! the single timed stream.

use tics_trace::TraceEvent;

/// Everything the experiments count: completions, checkpoints, traffic,
/// violations. All fields are updated by [`ExecStats::fold_event`]; only
/// `instructions` (too hot to event) is bumped directly by the executor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Boots (first boot + one per power-failure recovery).
    pub boots: u64,
    /// Power failures injected.
    pub power_failures: u64,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Checkpoints actually committed (not sites visited).
    pub checkpoints: u64,
    /// Total bytes committed by checkpoints.
    pub checkpoint_bytes: u64,
    /// Checkpoint restores performed after reboots.
    pub restores: u64,
    /// Self-healing recoveries: boots that detected an invalid
    /// checkpoint bank and fell back or fresh-started.
    pub recoveries: u64,
    /// Recoveries that degraded to a fresh start (every bank invalid).
    pub fresh_starts: u64,
    /// Undo-log entries appended.
    pub undo_log_appends: u64,
    /// Undo-log entries rolled back after failures.
    pub undo_rollbacks: u64,
    /// Stack segment grows.
    pub stack_grows: u64,
    /// Stack segment shrinks.
    pub stack_shrinks: u64,
    /// `mark(id)` events with the *true* wall-clock time (µs) at which
    /// they occurred — the simulation's logic-analyzer trace. The single
    /// source of truth for mark counting (see [`ExecStats::mark_count`]).
    pub marks_timed: Vec<(i32, u64)>,
    /// `send` events with true wall-clock time (µs). The single source
    /// of truth for transmissions (see [`ExecStats::sends`]).
    pub sends_timed: Vec<(i32, u64)>,
    /// True wall-clock time (µs) of every sensor sample.
    pub samples_timed: Vec<u64>,
    /// True wall-clock time (µs) of every power failure.
    pub failure_times: Vec<u64>,
    /// Values printed with `print`.
    pub prints: Vec<i32>,
    /// `led(x)` invocations.
    pub led_events: u64,
    /// Sensor samples taken (all `sample*` syscalls).
    pub samples: u64,
    /// `@expires` guards evaluated stale (data discarded).
    pub expired_data_discards: u64,
    /// `@expires`/`catch` blocks aborted by the expiration timer.
    pub expires_catches: u64,
    /// `@timely` branches not taken because the deadline had passed.
    pub timely_misses: u64,
    /// ISR invocations.
    pub isr_entries: u64,
    /// `uart_rx` polls that returned a byte (torn/empty polls excluded).
    pub uart_rx_bytes: u64,
    /// I2C bus operations driven (START/WRITE/READ/STOP/RESET phases).
    pub i2c_ops: u64,
    /// Transactions opened with `tx_begin` (attempt 0 only, not retries).
    pub txn_begins: u64,
    /// Transactions committed with `tx_commit`.
    pub txn_commits: u64,
    /// Transaction retries scheduled by reboot-time reconciliation.
    pub txn_retries: u64,
    /// Transactions poisoned after exhausting the retry budget.
    pub txn_poisoned: u64,
    /// Transactions skipped at `tx_begin` (already committed or poisoned).
    pub txn_skips: u64,
}

impl ExecStats {
    /// Zeroes every counter and empties every timed stream while keeping
    /// the `Vec` allocations, so a recycled machine starts from the same
    /// observable state as `ExecStats::default()` without re-allocating.
    pub fn reset(&mut self) {
        let ExecStats {
            boots,
            power_failures,
            instructions,
            checkpoints,
            checkpoint_bytes,
            restores,
            recoveries,
            fresh_starts,
            undo_log_appends,
            undo_rollbacks,
            stack_grows,
            stack_shrinks,
            marks_timed,
            sends_timed,
            samples_timed,
            failure_times,
            prints,
            led_events,
            samples,
            expired_data_discards,
            expires_catches,
            timely_misses,
            isr_entries,
            uart_rx_bytes,
            i2c_ops,
            txn_begins,
            txn_commits,
            txn_retries,
            txn_poisoned,
            txn_skips,
        } = self;
        *boots = 0;
        *power_failures = 0;
        *instructions = 0;
        *checkpoints = 0;
        *checkpoint_bytes = 0;
        *restores = 0;
        *recoveries = 0;
        *fresh_starts = 0;
        *undo_log_appends = 0;
        *undo_rollbacks = 0;
        *stack_grows = 0;
        *stack_shrinks = 0;
        marks_timed.clear();
        sends_timed.clear();
        samples_timed.clear();
        failure_times.clear();
        prints.clear();
        *led_events = 0;
        *samples = 0;
        *expired_data_discards = 0;
        *expires_catches = 0;
        *timely_misses = 0;
        *isr_entries = 0;
        *uart_rx_bytes = 0;
        *i2c_ops = 0;
        *txn_begins = 0;
        *txn_commits = 0;
        *txn_retries = 0;
        *txn_poisoned = 0;
        *txn_skips = 0;
    }

    /// Folds one trace event into the counters. This is the *only*
    /// update path for every field except `instructions`: the machine
    /// calls it from `emit`, so the stats and the trace cannot disagree.
    pub fn fold_event(&mut self, event: &TraceEvent, at_us: u64) {
        match *event {
            TraceEvent::Boot => self.boots += 1,
            TraceEvent::PowerFailure { .. } => {
                self.power_failures += 1;
                self.failure_times.push(at_us);
            }
            TraceEvent::CheckpointCommit { bytes, .. } => {
                self.checkpoints += 1;
                self.checkpoint_bytes += bytes;
            }
            TraceEvent::Restore { .. } => self.restores += 1,
            TraceEvent::Recovery { fresh_start, .. } => {
                self.recoveries += 1;
                if fresh_start {
                    self.fresh_starts += 1;
                }
            }
            TraceEvent::UndoAppend { .. } => self.undo_log_appends += 1,
            TraceEvent::Rollback { .. } => self.undo_rollbacks += 1,
            TraceEvent::Mark { id } => self.marks_timed.push((id, at_us)),
            TraceEvent::Send { value } => self.sends_timed.push((value, at_us)),
            TraceEvent::Sample { .. } => {
                self.samples += 1;
                self.samples_timed.push(at_us);
            }
            TraceEvent::Print { value } => self.prints.push(value),
            TraceEvent::Led { .. } => self.led_events += 1,
            TraceEvent::IsrEnter => self.isr_entries += 1,
            TraceEvent::ExpireDiscard => self.expired_data_discards += 1,
            TraceEvent::ExpiresCatch => self.expires_catches += 1,
            TraceEvent::TimelyMiss => self.timely_misses += 1,
            TraceEvent::StackGrow => self.stack_grows += 1,
            TraceEvent::StackShrink => self.stack_shrinks += 1,
            TraceEvent::UartRx { byte } => {
                if byte >= 0 {
                    self.uart_rx_bytes += 1;
                }
            }
            TraceEvent::I2cOp { .. } => self.i2c_ops += 1,
            TraceEvent::TxnBegin { .. } => self.txn_begins += 1,
            TraceEvent::TxnCommit { .. } => self.txn_commits += 1,
            TraceEvent::TxnRetry { .. } => self.txn_retries += 1,
            TraceEvent::TxnPoisoned { .. } => self.txn_poisoned += 1,
            TraceEvent::TxnSkip { .. } => self.txn_skips += 1,
            TraceEvent::TornWrite { .. }
            | TraceEvent::UartTx { .. }
            | TraceEvent::IsrExit
            | TraceEvent::SpanEnter { .. }
            | TraceEvent::SpanExit { .. } => {}
        }
    }

    /// Completions recorded for `mark(id)`, derived from the timed
    /// stream (there is no separate counter to fall out of sync).
    #[must_use]
    pub fn mark_count(&self, id: i32) -> u64 {
        self.marks_timed.iter().filter(|&&(i, _)| i == id).count() as u64
    }

    /// Values transmitted with `send`, in order, derived from the timed
    /// stream.
    #[must_use]
    pub fn sends(&self) -> Vec<i32> {
        self.sends_timed.iter().map(|&(v, _)| v).collect()
    }

    /// Mean checkpoint size in bytes, if any checkpoint was taken.
    #[must_use]
    pub fn mean_checkpoint_bytes(&self) -> Option<f64> {
        if self.checkpoints == 0 {
            None
        } else {
            Some(self.checkpoint_bytes as f64 / self.checkpoints as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_count_defaults_to_zero() {
        let mut s = ExecStats::default();
        assert_eq!(s.mark_count(3), 0);
        s.fold_event(&TraceEvent::Mark { id: 3 }, 10);
        s.fold_event(&TraceEvent::Mark { id: 3 }, 20);
        s.fold_event(&TraceEvent::Mark { id: 4 }, 30);
        assert_eq!(s.mark_count(3), 2);
        assert_eq!(s.mark_count(4), 1);
    }

    #[test]
    fn sends_derive_from_timed_stream() {
        let mut s = ExecStats::default();
        s.fold_event(&TraceEvent::Send { value: 7 }, 100);
        s.fold_event(&TraceEvent::Send { value: -2 }, 200);
        assert_eq!(s.sends(), vec![7, -2]);
        assert_eq!(s.sends_timed, vec![(7, 100), (-2, 200)]);
    }

    #[test]
    fn fold_tracks_samples_and_failures() {
        let mut s = ExecStats::default();
        s.fold_event(&TraceEvent::Boot, 0);
        s.fold_event(&TraceEvent::Sample { value: 3 }, 5);
        s.fold_event(&TraceEvent::Print { value: 1 }, 6);
        s.fold_event(&TraceEvent::Led { value: 1 }, 7);
        s.fold_event(&TraceEvent::PowerFailure { off_us: 50 }, 9);
        assert_eq!(s.boots, 1);
        assert_eq!(s.samples, 1);
        assert_eq!(s.samples_timed, vec![5]);
        assert_eq!(s.led_events, 1);
        assert_eq!(s.failure_times, vec![9]);
        assert_eq!(s.power_failures, 1);
    }

    #[test]
    fn peripheral_events_fold_into_counters() {
        let mut s = ExecStats::default();
        s.fold_event(&TraceEvent::UartRx { byte: -1 }, 25);
        s.fold_event(&TraceEvent::UartRx { byte: 0x42 }, 26);
        s.fold_event(
            &TraceEvent::I2cOp {
                op: tics_trace::I2cPhase::Start,
                value: 0x40,
                ack: true,
            },
            30,
        );
        s.fold_event(&TraceEvent::TxnBegin { id: 1 }, 31);
        s.fold_event(&TraceEvent::TxnCommit { id: 1 }, 32);
        assert_eq!(s.uart_rx_bytes, 1);
        assert_eq!(s.i2c_ops, 1);
        assert_eq!(s.txn_begins, 1);
        assert_eq!(s.txn_commits, 1);
    }

    #[test]
    fn mean_checkpoint_bytes() {
        let mut s = ExecStats::default();
        assert_eq!(s.mean_checkpoint_bytes(), None);
        for _ in 0..4 {
            s.fold_event(
                &TraceEvent::CheckpointCommit {
                    cause: tics_trace::CkptCause::Site,
                    bytes: 25,
                },
                0,
            );
        }
        assert_eq!(s.mean_checkpoint_bytes(), Some(25.0));
    }
}
