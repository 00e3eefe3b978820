//! Cuckoo Filter (CF) — approximate membership with eviction, plus
//! sequence recovery through the same filter (§5.3).
//!
//! Keys are inserted under two candidate buckets (partial-key cuckoo
//! hashing with bounded eviction kicks); afterwards every inserted key
//! is looked up again ("sequence recovery") and the hit count is the
//! program's result. Pure array indexing — this is the benchmark that
//! *can* be ported to task kernels, but, as the paper notes, "Cuckoo
//! cannot be implemented in MayFly since loops are not allowed in a
//! MayFly task graph" (the eviction loop is unbounded in graph form).

/// Number of buckets (must be a power of two).
pub const BUCKETS: u32 = 32;
/// Slots per bucket.
pub const SLOTS: u32 = 4;
/// Maximum eviction kicks before an insert is declared failed.
pub const MAX_KICKS: u32 = 16;

/// `mark` id: one key inserted (or rejected after max kicks).
pub const MARK_INSERT: i32 = 1;
/// `mark` id: one key looked up during recovery.
pub const MARK_LOOKUP: i32 = 2;

/// The CF benchmark over `keys` pseudo-random keys.
#[must_use]
pub fn plain_src(keys: u32) -> String {
    format!(
        "// Cuckoo filter: {BUCKETS} buckets x {SLOTS} slots, fp in 1..=255.
int buckets[128];
nv int key_log[64];
nv int n_keys;
nv int phase;
nv int found;
nv int looked;

int fingerprint(int key) {{
    int f = ((key * 31) ^ (key >> 7)) & 255;
    if (f == 0) {{ f = 1; }}
    return f;
}}

int bucket1(int key) {{
    return (key ^ (key >> 5)) & {mask};
}}

int alt_bucket(int i, int f) {{
    return (i ^ (f * 17)) & {mask};
}}

int slot_at(int b, int s) {{
    return buckets[b * {SLOTS} + s];
}}

int try_place(int b, int f) {{
    for (int s = 0; s < {SLOTS}; s++) {{
        if (buckets[b * {SLOTS} + s] == 0) {{
            buckets[b * {SLOTS} + s] = f;
            return 1;
        }}
    }}
    return 0;
}}

int insert(int key) {{
    int f = fingerprint(key);
    int b1 = bucket1(key);
    int b2 = alt_bucket(b1, f);
    if (try_place(b1, f)) {{ return 1; }}
    if (try_place(b2, f)) {{ return 1; }}
    // Evict: kick a random-ish victim back and forth.
    int b = b1;
    for (int k = 0; k < {MAX_KICKS}; k++) {{
        int victim_slot = (f + k) % {SLOTS};
        int old = buckets[b * {SLOTS} + victim_slot];
        buckets[b * {SLOTS} + victim_slot] = f;
        f = old;
        b = alt_bucket(b, f);
        if (try_place(b, f)) {{ return 1; }}
    }}
    return 0;
}}

int lookup(int key) {{
    int f = fingerprint(key);
    int b1 = bucket1(key);
    int b2 = alt_bucket(b1, f);
    for (int s = 0; s < {SLOTS}; s++) {{
        if (slot_at(b1, s) == f) {{ return 1; }}
        if (slot_at(b2, s) == f) {{ return 1; }}
    }}
    return 0;
}}

int main() {{
    while (phase == 0) {{
        if (n_keys >= {keys}) {{ phase = 1; }}
        else {{
            int key = rand16();
            if (key == 0) {{ key = 7; }}
            insert(key);
            key_log[n_keys] = key;
            n_keys = n_keys + 1;
            mark({MARK_INSERT});
        }}
    }}
    while (looked < n_keys) {{
        found = found + lookup(key_log[looked]);
        looked = looked + 1;
        mark({MARK_LOOKUP});
    }}
    send(found);
    return found;
}}
",
        mask = BUCKETS - 1,
    )
}

/// Task-graph CF port (Alpaca/InK). The eviction loop lives inside one
/// task; MayFly's loop-free graphs cannot express it, so `build_app`
/// rejects the CF + MayFly combination exactly as Figure 9 marks ✗.
#[must_use]
pub fn task_src(keys: u32) -> String {
    let plain = plain_src(keys);
    // Reuse the filter functions; re-shape main into dispatcher + tasks.
    let body_end = plain.find("int main()").expect("main present");
    let helpers = &plain[..body_end];
    format!(
        "{helpers}
nv int cur_task;

int task_insert() {{
    int key = rand16();
    if (key == 0) {{ key = 7; }}
    insert(key);
    key_log[n_keys] = key;
    n_keys = n_keys + 1;
    mark({MARK_INSERT});
    if (n_keys >= {keys}) {{ return 1; }}
    return 0;
}}

int task_recover() {{
    found = found + lookup(key_log[looked]);
    looked = looked + 1;
    mark({MARK_LOOKUP});
    if (looked >= n_keys) {{ return 2; }}
    return 1;
}}

int task_report() {{
    send(found);
    phase = 1;
    return 2;
}}

int main() {{
    while (phase == 0) {{
        if (cur_task == 0) {{ cur_task = task_insert(); }}
        else {{ if (cur_task == 1) {{ cur_task = task_recover(); }}
        else {{ task_report(); }} }}
    }}
    return found;
}}
"
    )
}

/// Task function names of [`task_src`].
pub const TASK_FUNCTIONS: &[&str] = &["task_insert", "task_recover", "task_report"];

#[cfg(test)]
mod tests {
    use super::*;
    use tics_energy::ContinuousPower;
    use tics_minic::{compile, opt::OptLevel};
    use tics_vm::{BareRuntime, Executor, Machine, MachineConfig};

    fn run(src: &str, seed: u64) -> (i32, tics_vm::ExecStats) {
        let prog = compile(src, OptLevel::O2).unwrap();
        let mut m = Machine::new(
            prog,
            MachineConfig {
                seed,
                ..MachineConfig::default()
            },
        )
        .unwrap();
        let mut rt = BareRuntime::new();
        let out = Executor::new()
            .run(&mut m, &mut rt, &mut ContinuousPower::new())
            .unwrap();
        (out.exit_code().unwrap(), m.stats().clone())
    }

    #[test]
    fn most_inserted_keys_are_recovered() {
        let keys = 48;
        let (found, stats) = run(&plain_src(keys), 0x5EED);
        // Cuckoo filters have no false negatives for retained keys; a few
        // inserts may fail after MAX_KICKS at high load factor (48/128).
        assert!(
            found >= (keys as i32) * 9 / 10,
            "recovered only {found}/{keys}"
        );
        assert_eq!(stats.mark_count(MARK_INSERT), u64::from(keys));
        assert_eq!(stats.mark_count(MARK_LOOKUP), u64::from(keys));
    }

    #[test]
    fn recovery_is_deterministic_per_seed() {
        assert_eq!(run(&plain_src(32), 1).0, run(&plain_src(32), 1).0);
    }

    #[test]
    fn task_port_matches_plain_result() {
        let (plain, _) = run(&plain_src(24), 99);
        // Under continuous power, the task port computes the same filter.
        let (task, _) = {
            use crate::build::{build_app, make_runtime, App, Scale, SystemUnderTest};
            let system = SystemUnderTest::Alpaca;
            let prog = build_app(App::Cuckoo, system, OptLevel::O2, Scale(24)).unwrap();
            let mut rt = make_runtime(system, &prog);
            let mut m = Machine::new(
                prog,
                MachineConfig {
                    seed: 99,
                    ..MachineConfig::default()
                },
            )
            .unwrap();
            let out = Executor::new()
                .run(&mut m, rt.as_mut(), &mut ContinuousPower::new())
                .unwrap();
            (out.exit_code().unwrap(), ())
        };
        assert_eq!(plain, task);
    }

    #[test]
    fn survives_intermittent_power_under_tics() {
        use tics_core::{TicsConfig, TicsRuntime};
        use tics_minic::passes;
        let mut prog = compile(&plain_src(32), OptLevel::O2).unwrap();
        passes::instrument_tics(&mut prog).unwrap();
        let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
        let mut rt = TicsRuntime::new(TicsConfig::s2().with_timer(Some(3_000)));
        let out = Executor::new()
            .with_time_budget(2_000_000_000)
            .run(
                &mut m,
                &mut rt,
                &mut tics_energy::PeriodicTrace::new(12_000, 800),
            )
            .unwrap();
        let found = out.exit_code().unwrap();
        assert!(found >= 32 * 9 / 10, "recovered only {found}/32");
        assert!(m.stats().power_failures > 0);
    }
}
