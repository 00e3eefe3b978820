//! The decoder's proofs hold on every real program: every function of
//! the fault corpus and of the Table 1 and Figure 9 applications, on
//! every system and optimisation level, verifies, and every reachable
//! local load and store of it lowers to a frame op, never to the
//! reference fallback that an out-of-frame offset gets.

use tics_apps::build::{build_app, App, Scale, SystemUnderTest};
use tics_bench::fault::{build_fault_program, FaultProgram};
use tics_minic::isa::Instr;
use tics_minic::opt::OptLevel;
use tics_minic::Program;
use tics_vm::decoded::{Op, DEPTH_UNKNOWN};
use tics_vm::LoadedProgram;

/// Every buildable program: the corpus per system, and each application
/// per system and level (Table 1 and Figure 9 build from these).
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for system in SystemUnderTest::ALL {
        for p in FaultProgram::ALL {
            if let Ok(prog) = build_fault_program(p, system) {
                out.push((format!("{}/{system:?}", p.name()), prog));
            }
        }
        for app in [App::Ar, App::Bc, App::Cuckoo, App::Ghm, App::GhmTinyos] {
            for level in OptLevel::ALL {
                if let Ok(prog) = build_app(app, system, level, Scale(8)) {
                    out.push((format!("{}/{system:?}/{level}", app.name()), prog));
                }
            }
        }
    }
    out
}

#[test]
fn every_real_function_verifies_with_frame_locals() {
    let programs = programs();
    assert!(
        programs.len() >= 100,
        "only {} programs built",
        programs.len()
    );
    for (label, prog) in programs {
        let loaded = LoadedProgram::load(prog).expect("the program loads");
        let dp = &loaded.decoded;
        for (fi, f) in loaded.program.functions.iter().enumerate() {
            assert!(dp.verified[fi], "{label}: `{}` does not verify", f.name);
        }
        for (pc, instr) in loaded.code.iter().enumerate() {
            let local = matches!(instr, Instr::LoadLocal(_) | Instr::StoreLocal(_));
            if local && dp.depths[pc] != DEPTH_UNKNOWN {
                assert_ne!(
                    dp.ops[pc],
                    Op::Ref,
                    "{label}: pc {pc} ({instr:?}) fell back to the reference"
                );
            }
        }
    }
}
