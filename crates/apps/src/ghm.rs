//! Greenhouse Monitoring (GHM) — the Table 1 application: sense soil
//! moisture, sense ambient temperature, compute averages, send (§5.1).
//!
//! Each routine completion increments an `nv` counter — the memory-level
//! equivalent of the paper's externally counted GPIO toggles, with the
//! crucial property that under TICS the increments are undo-logged and
//! roll back with everything else, while under plain C they persist
//! through restarts. A run is **consistent** when all four counters are
//! equal (Table 1's ✓/✗ criterion); plain C on intermittent power senses
//! over and over but rarely reaches `send`, producing the skewed counter
//! pattern of the table.
//!
//! Two source variants:
//! * [`plain_src`] — the classic superloop.
//! * [`tinyos_src`] — the same application as *event-driven legacy
//!   code* on a TinyOS-style post/run task queue (the "TinyOS" rows).

/// Sensor readings averaged per routine.
pub const READINGS: u32 = 4;

/// Offsets (in declaration order) of the four routine counters in the
/// data segment: moisture, temperature, compute, send.
pub const COUNTER_NAMES: [&str; 4] = ["c_moist", "c_temp", "c_comp", "c_send"];

/// The plain-C superloop GHM.
#[must_use]
pub fn plain_src(rounds: u32) -> String {
    format!(
        "// Greenhouse monitoring, legacy superloop.
nv int c_moist;
nv int c_temp;
nv int c_comp;
nv int c_send;
nv int rounds_done;
int moisture[{READINGS}];
int temperature[{READINGS}];

int main() {{
    while (rounds_done < {rounds}) {{
        for (int i = 0; i < {READINGS}; i++) {{ moisture[i] = sample_moisture(); }}
        c_moist = c_moist + 1;
        for (int i = 0; i < {READINGS}; i++) {{ temperature[i] = sample_temp(); }}
        c_temp = c_temp + 1;
        int ms = 0;
        int ts = 0;
        for (int i = 0; i < {READINGS}; i++) {{ ms += moisture[i]; ts += temperature[i]; }}
        int mavg = ms / {READINGS};
        int tavg = ts / {READINGS};
        c_comp = c_comp + 1;
        send(mavg);
        send(tavg);
        c_send = c_send + 1;
        rounds_done = rounds_done + 1;
    }}
    return rounds_done;
}}
"
    )
}

/// GHM as event-driven TinyOS-style code: routines are tasks posted to a
/// small run queue, dispatched by the kernel loop — the "massive set of
/// existing applications and legacy code written e.g. in TinyOS" the
/// paper targets.
#[must_use]
pub fn tinyos_src(rounds: u32) -> String {
    format!(
        "// Greenhouse monitoring on a TinyOS-style post/run mini-kernel.
nv int c_moist;
nv int c_temp;
nv int c_comp;
nv int c_send;
nv int rounds_done;
int moisture[{READINGS}];
int temperature[{READINGS}];
int mavg;
int tavg;

// ---- mini TinyOS: a FIFO run queue of task ids ----
int queue[8];
int q_head;
int q_tail;

void post(int tid) {{
    queue[q_tail & 7] = tid;
    q_tail = q_tail + 1;
}}

// ---- application tasks ----
void sense_moisture_task() {{
    for (int i = 0; i < {READINGS}; i++) {{ moisture[i] = sample_moisture(); }}
    c_moist = c_moist + 1;
    post(1);
}}

void sense_temp_task() {{
    for (int i = 0; i < {READINGS}; i++) {{ temperature[i] = sample_temp(); }}
    c_temp = c_temp + 1;
    post(2);
}}

void compute_task() {{
    int ms = 0;
    int ts = 0;
    for (int i = 0; i < {READINGS}; i++) {{ ms += moisture[i]; ts += temperature[i]; }}
    mavg = ms / {READINGS};
    tavg = ts / {READINGS};
    c_comp = c_comp + 1;
    post(3);
}}

void send_task() {{
    send(mavg);
    send(tavg);
    c_send = c_send + 1;
    rounds_done = rounds_done + 1;
    if (rounds_done < {rounds}) {{ post(0); }}
}}

void dispatch(int tid) {{
    if (tid == 0) {{ sense_moisture_task(); }}
    else {{ if (tid == 1) {{ sense_temp_task(); }}
    else {{ if (tid == 2) {{ compute_task(); }}
    else {{ send_task(); }} }} }}
}}

int main() {{
    post(0); // boot event
    while (rounds_done < {rounds}) {{
        if (q_head != q_tail) {{
            int tid = queue[q_head & 7];
            q_head = q_head + 1;
            dispatch(tid);
        }}
    }}
    return rounds_done;
}}
"
    )
}

/// Reads the four routine counters out of a finished (or interrupted)
/// machine, in [`COUNTER_NAMES`] order.
///
/// # Panics
///
/// Panics if the program does not declare the GHM counters.
#[must_use]
pub fn read_counters(m: &tics_vm::Machine) -> [i32; 4] {
    let mut out = [0i32; 4];
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        let g = m
            .loaded()
            .program
            .global(name)
            .unwrap_or_else(|| panic!("GHM counter `{name}` missing"));
        out[i] = m
            .mem
            .peek_word(m.global_addr(g.offset))
            .expect("counter readable") as i32;
    }
    out
}

/// Table 1's correctness criterion: the routine counters describe a
/// consistent execution — the pipeline counts are non-increasing
/// (sense ≥ compute ≥ send) and differ by at most the one round that was
/// in flight when the experiment window closed.
#[must_use]
pub fn is_consistent(counters: [i32; 4]) -> bool {
    let monotone = counters.windows(2).all(|w| w[0] >= w[1]);
    let spread = counters.iter().max().unwrap() - counters.iter().min().unwrap();
    monotone && spread <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ghm_trace;
    use tics_energy::{ContinuousPower, DutyCycleTrace};
    use tics_minic::{compile, opt::OptLevel, passes};
    use tics_vm::{BareRuntime, Executor, Machine, MachineConfig, RunOutcome};

    fn machine(src: &str, rounds: u32) -> Machine {
        let prog = compile(src, OptLevel::O2).unwrap();
        Machine::new(
            prog,
            MachineConfig {
                sensor_trace: ghm_trace(rounds, READINGS, 5).into(),
                ..MachineConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn plain_ghm_consistent_on_continuous_power() {
        let mut m = machine(&plain_src(10), 10);
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(10));
        let c = read_counters(&m);
        assert_eq!(c, [10, 10, 10, 10]);
        assert!(is_consistent(c));
        assert_eq!(m.stats().sends().len(), 20);
    }

    #[test]
    fn tinyos_ghm_matches_plain_semantics() {
        let mut m = machine(&tinyos_src(7), 7);
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        assert_eq!(out.exit_code(), Some(7));
        assert!(is_consistent(read_counters(&m)));
    }

    #[test]
    fn plain_ghm_is_inconsistent_on_intermittent_power() {
        // Short on-periods: sensing happens over and over, send rarely —
        // the Table 1 plain-C failure shape.
        let mut m = machine(&plain_src(50), 50);
        let mut rt = BareRuntime::new();
        // 25 % duty over 4 ms periods: 1 ms on-slices, shorter than one
        // GHM round, so the loop restarts over and over.
        let mut supply = DutyCycleTrace::new(0.25, 4_000, 0.2, 3);
        let out = Executor::new()
            .with_time_budget(300_000)
            .run(&mut m, &mut rt, &mut supply)
            .unwrap();
        assert_eq!(out, RunOutcome::BudgetExhausted);
        let c = read_counters(&m);
        assert!(c[0] > 0, "sensing must have happened: {c:?}");
        // Every reboot re-senses before it can send again, so dozens of
        // boots leave strictly more sense completions than sends.
        assert!(c[0] > c[3], "plain C should skew counters, got {c:?}");
        assert!(!is_consistent(c), "got {c:?}");
    }

    #[test]
    fn tics_ghm_is_consistent_on_intermittent_power() {
        use tics_core::{TicsConfig, TicsRuntime};
        let rounds = 12;
        let mut prog = compile(&plain_src(rounds), OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                sensor_trace: ghm_trace(rounds, READINGS, 5).into(),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(3_000)));
        let mut supply = DutyCycleTrace::new(0.5, 8_000, 0.2, 3);
        let out = Executor::new()
            .with_time_budget(5_000_000_000)
            .run(&mut m, &mut rt, &mut supply)
            .unwrap();
        assert_eq!(out.exit_code(), Some(rounds as i32));
        let c = read_counters(&m);
        assert_eq!(c, [rounds as i32; 4], "TICS must keep counters exact");
        assert!(m.stats().power_failures > 0);
    }

    #[test]
    fn tinyos_ghm_under_tics_is_consistent() {
        use tics_core::{TicsConfig, TicsRuntime};
        let rounds = 8;
        let mut prog = compile(&tinyos_src(rounds), OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                sensor_trace: ghm_trace(rounds, READINGS, 5).into(),
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(3_000)));
        let mut supply = DutyCycleTrace::new(0.5, 8_000, 0.2, 9);
        let out = Executor::new()
            .with_time_budget(5_000_000_000)
            .run(&mut m, &mut rt, &mut supply)
            .unwrap();
        assert_eq!(out.exit_code(), Some(rounds as i32));
        assert!(is_consistent(read_counters(&m)));
    }
}
