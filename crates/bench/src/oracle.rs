//! The violation oracle — the simulation's logic analyzer (Table 2).
//!
//! The paper counts three classes of time-consistency violations
//! (Figure 3 b–d) by observing the device externally. Here the machine
//! records every sample, mark, send, and power failure in its structured
//! trace with the *true* wall-clock time; this module reconstructs the
//! AR application's timeline from that one event stream and counts, for
//! each consumed window:
//!
//! * **data expiration** — the classification consumed a sample older
//!   than the freshness bound,
//! * **time misalignment** — a power failure fell between the window's
//!   timestamp acquisition and its data acquisition, so the consumed
//!   (timestamp, data) pair lies about the data's age,
//! * **timely branching** — an alert was emitted after its deadline had
//!   already passed in true time.
//!
//! The TICS-annotated AR makes the timestamp+data pair a single atomic
//! `@=` event, so misalignment is impossible by construction; its
//! `@expires`/`@timely` guards are checked against a persistent
//! timekeeper, which is what drives the other two counts to zero.

use tics_apps::ar;
use tics_trace::{TraceEvent, TraceRecord};

/// Measurement slack, in µs, granted on every freshness/deadline check.
///
/// The oracle observes the device externally, so between the event that
/// starts a bound (a sample, a window completion) and the send that ends
/// it, legitimate execution time elapses even on continuous power —
/// featurization of a 6-sample window takes on the order of 10 ms of
/// MCU time. A violation is only flagged when the bound is exceeded by
/// more than this slack, mirroring how the paper's logic-analyzer
/// methodology tolerates nominal compute latency and counts only
/// outage-induced staleness. 20 ms is comfortably above the worst-case
/// on-power compute time of any AR stage and far below the smallest
/// bound it guards (the 200 ms TTL).
pub const SLACK_US: u64 = 20_000;

/// Violation counts plus the potential-occurrence denominators the
/// paper reports alongside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Violations {
    /// Windows sampled (potential misalignment / expiration points).
    pub potential_windows: u64,
    /// Alert-branch evaluations (potential timely-branch points).
    pub potential_timely: u64,
    /// Timely-branching violations (Figure 3b).
    pub timely_branch: u64,
    /// Time-and-data misalignment violations (Figure 3c).
    pub misalignment: u64,
    /// Data-expiration violations (Figure 3d).
    pub expiration: u64,
}

impl Violations {
    /// Total violations across the three classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.timely_branch + self.misalignment + self.expiration
    }
}

/// Counts AR time-consistency violations from an execution's recorded
/// trace. `atomic_timestamps` is true for the TICS-annotated variant
/// (`@=` makes timestamp acquisition and data acquisition one event, so
/// there is no window for misalignment).
#[must_use]
pub fn count_violations(records: &[TraceRecord], atomic_timestamps: bool) -> Violations {
    let ttl_us = u64::from(ar::TTL_MS) * 1_000;
    let deadline_us = u64::from(ar::ALERT_DEADLINE_MS) * 1_000;

    let mut v = Violations::default();

    // Timelines reconstructed from the one event stream: window
    // completions, manual-timestamp marks, sensor samples, sends, and
    // power failures, each at its true wall-clock µs.
    let mut windows: Vec<u64> = Vec::new();
    let mut ts_events: Vec<u64> = Vec::new();
    let mut samples: Vec<u64> = Vec::new();
    let mut sends: Vec<(i32, u64)> = Vec::new();
    let mut failures: Vec<u64> = Vec::new();
    for r in records {
        match r.event {
            TraceEvent::Mark { id } => match id {
                ar::MARK_WINDOW => windows.push(r.at_us),
                ar::MARK_TS => ts_events.push(r.at_us),
                ar::MARK_ALERT | ar::MARK_ALERT_MISS => v.potential_timely += 1,
                _ => {}
            },
            TraceEvent::Sample { .. } => samples.push(r.at_us),
            TraceEvent::Send { value } => sends.push((value, r.at_us)),
            TraceEvent::PowerFailure { .. } => failures.push(r.at_us),
            _ => {}
        }
    }
    v.potential_windows = windows.len() as u64;

    let last_before = |times: &[u64], t: u64| -> Option<u64> {
        times.iter().copied().take_while(|x| *x <= t).last()
    };

    for &(value, t_send) in &sends {
        if value >= 0 {
            // A classification: consumed the window completed just before.
            let Some(t_window) = last_before(&windows, t_send) else {
                continue;
            };
            // The window's samples are the last `WINDOW` sample events at
            // or before its completion.
            // Age is measured from the window's *newest* sample — the
            // paper's timestamps are per variable (latest write, §3.2),
            // so "expired" means even the freshest reading is stale.
            let newest_sample = samples
                .iter()
                .copied()
                .take_while(|s| *s <= t_window)
                .last();
            if let Some(newest) = newest_sample {
                if t_send.saturating_sub(newest) > ttl_us + SLACK_US {
                    v.expiration += 1;
                }
            }
            // Misalignment: a failure between the consumed window's
            // timestamp acquisition and its completion.
            if !atomic_timestamps {
                if let Some(t_ts) = last_before(&ts_events, t_window) {
                    if failures.iter().any(|f| *f > t_ts && *f < t_window) {
                        v.misalignment += 1;
                    }
                }
            }
        } else if value == ar::ALERT_VALUE {
            // An alert: must land within the deadline of its window.
            if let Some(t_window) = last_before(&windows, t_send) {
                if t_send.saturating_sub(t_window) > deadline_us + SLACK_US {
                    v.timely_branch += 1;
                }
            }
        }
    }
    v
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

    fn base_trace() -> Vec<TraceRecord> {
        // One window: ts at t=0, six samples, window complete at 700.
        let mut t = vec![rec(0, TraceEvent::Mark { id: ar::MARK_TS })];
        for i in 0..6 {
            t.push(rec(100 + i * 100, TraceEvent::Sample { value: 40 }));
        }
        t.push(rec(
            700,
            TraceEvent::Mark {
                id: ar::MARK_WINDOW,
            },
        ));
        t
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut t = base_trace();
        t.push(rec(1_000, TraceEvent::Send { value: 0 })); // classified promptly
        t.push(rec(
            1_200,
            TraceEvent::Send {
                value: ar::ALERT_VALUE,
            },
        ));
        t.push(rec(1_200, TraceEvent::Mark { id: ar::MARK_ALERT }));
        let v = count_violations(&t, false);
        assert_eq!(v.total(), 0);
        assert_eq!(v.potential_windows, 1);
        assert_eq!(v.potential_timely, 1);
    }

    #[test]
    fn detects_expiration() {
        let mut t = base_trace();
        // Consumed 400 ms after sampling: long past the 200 ms TTL.
        t.push(rec(500_000, TraceEvent::Send { value: 1 }));
        let v = count_violations(&t, false);
        assert_eq!(v.expiration, 1);
    }

    #[test]
    fn detects_misalignment() {
        let mut t = base_trace();
        // Failure at 350: between ts (0) and window (700).
        t.push(rec(350, TraceEvent::PowerFailure { off_us: 10 }));
        t.push(rec(1_000, TraceEvent::Send { value: 0 }));
        let v = count_violations(&t, false);
        assert_eq!(v.misalignment, 1);
        // Atomic timestamps cannot misalign.
        assert_eq!(count_violations(&t, true).misalignment, 0);
    }

    #[test]
    fn detects_late_alert() {
        let mut t = base_trace();
        t.push(rec(1_000, TraceEvent::Send { value: 0 }));
        t.push(rec(
            900_000,
            TraceEvent::Send {
                value: ar::ALERT_VALUE,
            },
        )); // way past deadline
        t.push(rec(900_000, TraceEvent::Mark { id: ar::MARK_ALERT }));
        let v = count_violations(&t, false);
        assert_eq!(v.timely_branch, 1);
    }

    #[test]
    fn unconsumed_windows_do_not_count() {
        let t = base_trace(); // window sampled, never classified
        let v = count_violations(&t, false);
        assert_eq!(v.total(), 0);
        assert_eq!(v.potential_windows, 1);
    }

    #[test]
    fn expiration_boundary_respects_slack() {
        let ttl_us = u64::from(ar::TTL_MS) * 1_000;
        // Newest sample at 600; send exactly at the TTL + slack edge.
        let at_edge = 600 + ttl_us + SLACK_US;
        let mut t = base_trace();
        t.push(rec(at_edge, TraceEvent::Send { value: 1 }));
        assert_eq!(count_violations(&t, false).expiration, 0, "at edge: fresh");

        let mut t = base_trace();
        t.push(rec(at_edge + 1, TraceEvent::Send { value: 1 }));
        assert_eq!(
            count_violations(&t, false).expiration,
            1,
            "one µs past edge: expired"
        );
    }

    #[test]
    fn deadline_boundary_respects_slack() {
        let deadline_us = u64::from(ar::ALERT_DEADLINE_MS) * 1_000;
        // Window at 700; alert exactly at the deadline + slack edge.
        let at_edge = 700 + deadline_us + SLACK_US;
        let mut t = base_trace();
        t.push(rec(
            at_edge,
            TraceEvent::Send {
                value: ar::ALERT_VALUE,
            },
        ));
        assert_eq!(
            count_violations(&t, false).timely_branch,
            0,
            "at edge: timely"
        );

        let mut t = base_trace();
        t.push(rec(
            at_edge + 1,
            TraceEvent::Send {
                value: ar::ALERT_VALUE,
            },
        ));
        assert_eq!(
            count_violations(&t, false).timely_branch,
            1,
            "one µs past edge: late"
        );
    }
}
