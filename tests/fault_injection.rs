//! Property test for the fault-injection harness: seeded splitmix64
//! fault plans across every runtime must reproduce Table 5's
//! memory-consistency column — runtimes that claim consistent memory
//! never diverge from the golden trace, and the naive checkpointer
//! (the one system without a consistency story) demonstrably does.

use tics_bench::fault::{
    build_fault_program, fault_budget_us, golden_run, judge, run_fault_cell, run_plan,
    FaultProgram, Strategy, Verdict, GUARD_BOOTS,
};
use tics_repro::apps::build::make_runtime;
use tics_repro::apps::SystemUnderTest;

/// splitmix64 — the per-cell seed stream, fixed so every run replays
/// the exact same fault plans.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn table5_consistency_column_holds_under_seeded_fault_plans() {
    let programs = [FaultProgram::NvAccumulator, FaultProgram::LcgStream];
    let mut seed_state = 0x7ab5_7ab5_0000_0001u64;
    let mut cells = 0usize;
    let mut violations_by_system: Vec<(SystemUnderTest, u64)> = Vec::new();

    for &program in &programs {
        for system in SystemUnderTest::ALL {
            let seed = splitmix64(&mut seed_state);
            let prog = match build_fault_program(program, system) {
                Ok(p) => p,
                // Feasibility holes (recursion under Chinchilla, pointers
                // under task kernels) are Table 5 columns of their own.
                Err(_) => continue,
            };
            let golden = golden_run(&prog, system)
                .unwrap_or_else(|e| panic!("{} golden run: {e}", system.name()));
            let claims = make_runtime(system, &prog)
                .capabilities()
                .memory_consistency;

            let report = run_fault_cell(&prog, system, &golden, Strategy::Random, 10, seed);
            assert_eq!(report.trials, 10, "{} ran every plan", system.name());
            cells += 1;

            if claims {
                assert_eq!(
                    report.violations,
                    0,
                    "{} claims memory consistency but violated the oracle on {} \
                     (first: {:?})",
                    system.name(),
                    program.name(),
                    report.first_violation,
                );
            } else if let Some(entry) = violations_by_system.iter_mut().find(|(s, _)| *s == system)
            {
                entry.1 += report.violations;
            } else {
                violations_by_system.push((system, report.violations));
            }

            // Violations journal a shrunk plan that still reproduces.
            if let Some(v) = &report.first_violation {
                assert!(!v.shrunk.cuts.is_empty(), "shrunk plan keeps its cuts");
                assert!(v.shrunk.cuts.len() <= v.plan.cuts.len());
                let budget = fault_budget_us(&golden);
                let replay = run_plan(&prog, system, &v.shrunk, budget, GUARD_BOOTS);
                assert!(
                    judge(&golden, &replay).is_violation(true),
                    "{} shrunk plan must still violate",
                    system.name()
                );
            }
        }
    }

    assert!(cells >= 10, "matrix coverage: got {cells} feasible cells");
    // Non-claiming systems are not merely *allowed* to diverge — the
    // harness must catch them doing it, or the oracle has no teeth.
    for (system, violations) in &violations_by_system {
        assert!(
            *violations > 0,
            "{} claims no memory consistency; seeded plans should expose \
             at least one divergence",
            system.name()
        );
    }
    assert!(
        violations_by_system
            .iter()
            .any(|(s, _)| *s == SystemUnderTest::Mementos),
        "naive checkpointing must be among the non-claiming systems"
    );
}

#[test]
fn naive_divergence_is_reproducible_and_tics_survives_it() {
    // The headline property, end to end: find a naive divergence with a
    // seeded plan, shrink it, then hand the exact same cut set to TICS.
    let program = FaultProgram::NvAccumulator;
    let naive = SystemUnderTest::Mementos;
    let tics = SystemUnderTest::Tics;

    let prog = build_fault_program(program, naive).expect("naive builds nv-accumulator");
    let golden = golden_run(&prog, naive).expect("naive golden run");
    let report = run_fault_cell(&prog, naive, &golden, Strategy::Stride, 40, 1);
    let violation = report
        .first_violation
        .as_ref()
        .expect("a 40-point stride sweep exposes the naive WAR hole");

    let tics_prog = build_fault_program(program, tics).expect("TICS builds nv-accumulator");
    let tics_golden = golden_run(&tics_prog, tics).expect("TICS golden run");
    let trial = run_plan(
        &tics_prog,
        tics,
        &violation.shrunk,
        fault_budget_us(&tics_golden),
        GUARD_BOOTS,
    );
    assert_eq!(
        judge(&tics_golden, &trial),
        Verdict::Consistent,
        "TICS must survive the shrunk plan that breaks naive checkpointing"
    );
}
