//! Activity Recognition (AR) — the paper's flagship time-sensitive
//! application (§5.2, Figure 8; also a §5.3 benchmark).
//!
//! A window of accelerometer samples is featurized (mean + mean absolute
//! deviation) and classified against two centroids (stationary /
//! moving). The time-sensitive requirements: sensed windows expire after
//! [`TTL_MS`] and must be discarded stale, and an activity *change* must
//! be alerted within [`ALERT_DEADLINE_MS`].
//!
//! Three variants:
//! * [`plain_src`] — unaltered legacy code with *manual* time handling
//!   via the device clock (`time_ms()`); the Table 2 "w/o TICS" subject.
//! * [`tics_src`] — the same logic with TICS annotations: `@=` sample
//!   timestamping, an `@expires` freshness guard, and a `@timely` alert
//!   branch.
//! * [`task_src`] — a hand-ported task-graph version (sample /
//!   featurize / classify tasks + dispatcher) for the Alpaca/InK/MayFly
//!   kernels, optionally with time annotations (InK/MayFly only).

/// Samples per window.
pub const WINDOW: u32 = 6;
/// Data freshness bound (ms) for a sensed window.
pub const TTL_MS: u32 = 200;
/// Alert deadline (ms) after an activity change is detected.
pub const ALERT_DEADLINE_MS: u32 = 200;
/// Mean-absolute-deviation threshold separating the two centroids.
pub const DEV_THRESHOLD: i32 = 20;

/// `mark` id: manual/device timestamp acquired for a window.
pub const MARK_TS: i32 = 5;
/// `mark` id: a full window of samples gathered.
pub const MARK_WINDOW: i32 = 1;
/// `mark` id: a window classified (an activity `send` follows it).
pub const MARK_CLASSIFY: i32 = 2;
/// `mark` id: a timely alert was raised (alert `send` of [`ALERT_VALUE`]).
pub const MARK_ALERT: i32 = 3;
/// `mark` id: the alert branch was *not* taken (deadline passed).
pub const MARK_ALERT_MISS: i32 = 4;
/// `mark` id: a stale window was discarded.
pub const MARK_DISCARD: i32 = 6;
/// `send` value used for alerts (distinct from activity 0/1).
pub const ALERT_VALUE: i32 = -1;

fn featurize_and_classify_body() -> &'static str {
    // Shared classification logic, identical across variants so the
    // comparison is apples-to-apples.
    "            int s = 0;
            for (int i = 0; i < 6; i++) { s += accel[i]; }
            int mean = s / 6;
            int d = 0;
            for (int i = 0; i < 6; i++) {
                int x = accel[i] - mean;
                if (x < 0) { x = 0 - x; }
                d += x;
            }
            int dev = d / 6;
            int activity = 0;
            if (dev > 20) { activity = 1; }
"
}

/// Legacy AR with manual time handling (device clock, no annotations).
#[must_use]
pub fn plain_src(windows: u32) -> String {
    format!(
        "// AR, legacy code: manual timestamps against the device clock.
nv int windows_done;
nv int prev_activity = -1;
int accel[6];
int win_ts;

int main() {{
    while (windows_done < {windows}) {{
        win_ts = time_ms();
        mark({MARK_TS});
        for (int i = 0; i < 6; i++) {{ accel[i] = sample_accel(); }}
        mark({MARK_WINDOW});
        int now = time_ms();
        if (now - win_ts < {TTL_MS}) {{
{body}            send(activity);
            mark({MARK_CLASSIFY});
            if (activity != prev_activity) {{
                if (time_ms() - win_ts < {ALERT_DEADLINE_MS}) {{
                    send({ALERT_VALUE});
                    mark({MARK_ALERT});
                }} else {{
                    mark({MARK_ALERT_MISS});
                }}
                prev_activity = activity;
            }}
        }} else {{
            mark({MARK_DISCARD});
        }}
        windows_done = windows_done + 1;
    }}
    return windows_done;
}}
",
        body = featurize_and_classify_body(),
    )
}

/// TICS-annotated AR: the paper's Figure 8 program shape.
#[must_use]
pub fn tics_src(windows: u32) -> String {
    format!(
        "// AR with TICS time annotations.
nv int windows_done;
nv int prev_activity = -1;
@expires_after = {TTL_MS}ms
int accel[6];

int main() {{
    while (windows_done < {windows}) {{
        for (int i = 0; i < 6; i++) {{
            accel[i] @= sample_accel();
        }}
        mark({MARK_WINDOW});
        int consumed = 0;
        @expires(accel) {{
{body}            send(activity);
            mark({MARK_CLASSIFY});
            if (activity != prev_activity) {{
                int deadline = time_ms() + {ALERT_DEADLINE_MS};
                @timely(deadline) {{
                    send({ALERT_VALUE});
                    mark({MARK_ALERT});
                }} else {{
                    mark({MARK_ALERT_MISS});
                }}
                prev_activity = activity;
            }}
            consumed = 1;
        }}
        if (consumed == 0) {{ mark({MARK_DISCARD}); }}
        windows_done = windows_done + 1;
    }}
    return windows_done;
}}
",
        body = featurize_and_classify_body(),
    )
}

/// Task-graph AR port for the task-based kernels (the Figure 2 manual
/// decomposition). With `timed`, the sample task uses `@=`/`@expires`
/// (InK/MayFly only; Alpaca has no timing support).
#[must_use]
pub fn task_src(windows: u32, timed: bool) -> String {
    let accel_decl = if timed {
        format!("@expires_after = {TTL_MS}ms\nint accel[6];")
    } else {
        "int accel[6];".to_string()
    };
    let sample_stmt = if timed {
        "accel[i] @= sample_accel();"
    } else {
        "accel[i] = sample_accel();"
    };
    let classify_task = if timed {
        format!(
            "int task_classify() {{
    int next = 0;
    @expires(accel) {{
        send(activity);
        mark({MARK_CLASSIFY});
        next = 3;
    }}
    if (next == 0) {{ mark({MARK_DISCARD}); next = 4; }}
    return next;
}}"
        )
    } else {
        format!(
            "int task_classify() {{
    send(activity);
    mark({MARK_CLASSIFY});
    return 3;
}}"
        )
    };
    format!(
        "// AR as a task graph: sample -> featurize -> classify -> alert.
nv int cur_task;
nv int windows_done;
nv int prev_activity = -1;
{accel_decl}
int f_mean;
int f_dev;
int activity;

int task_sample() {{
    for (int i = 0; i < 6; i++) {{ {sample_stmt} }}
    mark({MARK_WINDOW});
    return 1;
}}

int task_featurize() {{
    int s = 0;
    for (int i = 0; i < 6; i++) {{ s += accel[i]; }}
    f_mean = s / 6;
    int d = 0;
    for (int i = 0; i < 6; i++) {{
        int x = accel[i] - f_mean;
        if (x < 0) {{ x = 0 - x; }}
        d += x;
    }}
    f_dev = d / 6;
    activity = 0;
    if (f_dev > {DEV_THRESHOLD}) {{ activity = 1; }}
    return 2;
}}

{classify_task}

int task_alert() {{
    if (activity != prev_activity) {{
        send({ALERT_VALUE});
        mark({MARK_ALERT});
        prev_activity = activity;
    }}
    return 4;
}}

int task_advance() {{
    windows_done = windows_done + 1;
    return 0;
}}

int main() {{
    while (windows_done < {windows}) {{
        if (cur_task == 0) {{ cur_task = task_sample(); }}
        else {{ if (cur_task == 1) {{ cur_task = task_featurize(); }}
        else {{ if (cur_task == 2) {{ cur_task = task_classify(); }}
        else {{ if (cur_task == 3) {{ cur_task = task_alert(); }}
        else {{ cur_task = task_advance(); }} }} }} }}
    }}
    return windows_done;
}}
"
    )
}

/// Task function names of [`task_src`] (for the task-boundary pass).
pub const TASK_FUNCTIONS: &[&str] = &[
    "task_sample",
    "task_featurize",
    "task_classify",
    "task_alert",
    "task_advance",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ar_trace;
    use tics_minic::{compile, opt::OptLevel};
    use tics_vm::{BareRuntime, Executor, Machine, MachineConfig};

    #[test]
    fn plain_ar_classifies_correctly_on_continuous_power() {
        let windows = 12;
        let (trace, expected) = ar_trace(windows, WINDOW, 3, 42);
        let prog = compile(&plain_src(windows), OptLevel::O2).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                sensor_trace: trace.into(),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut tics_energy::ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(windows as i32));
        let activities: Vec<i32> = m
            .stats()
            .sends_timed
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| *v >= 0)
            .collect();
        assert_eq!(activities, expected, "classification must match labels");
        // Activity changes: first window plus each toggle → alerts.
        let alerts = m
            .stats()
            .sends_timed
            .iter()
            .filter(|&&(v, _)| v == ALERT_VALUE)
            .count();
        assert_eq!(alerts as u64, m.stats().mark_count(MARK_ALERT));
        assert!(alerts >= 3);
    }

    #[test]
    fn tics_ar_compiles_and_runs_under_tics_runtime() {
        use tics_core::{TicsConfig, TicsRuntime};
        use tics_minic::passes;
        let windows = 8;
        let (trace, expected) = ar_trace(windows, WINDOW, 2, 7);
        let mut prog = compile(&tics_src(windows), OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                sensor_trace: trace.into(),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::default());
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut tics_energy::ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(windows as i32));
        let activities: Vec<i32> = m
            .stats()
            .sends_timed
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| *v >= 0)
            .collect();
        assert_eq!(activities, expected);
        assert_eq!(m.stats().expired_data_discards, 0, "all windows fresh");
    }

    #[test]
    fn task_ar_runs_under_all_kernels() {
        use crate::build::{build_app, make_runtime, App, Scale, SystemUnderTest};
        for system in [
            SystemUnderTest::Alpaca,
            SystemUnderTest::Ink,
            SystemUnderTest::Mayfly,
        ] {
            let windows = 6;
            let (trace, _) = ar_trace(windows, WINDOW, 2, 3);
            let prog = build_app(App::Ar, system, OptLevel::O2, Scale(windows)).unwrap();
            let mut rt = make_runtime(system, &prog);
            let mut m = Machine::new(
                prog,
                MachineConfig {
                    sensor_trace: trace.into(),
                    ..MachineConfig::default()
                },
            )
            .unwrap();
            let out = Executor::new()
                .run(
                    &mut m,
                    rt.as_mut(),
                    &mut tics_energy::ContinuousPower::new(),
                )
                .unwrap();
            assert_eq!(
                out.exit_code(),
                Some(windows as i32),
                "{} failed",
                system.name()
            );
        }
    }
}
